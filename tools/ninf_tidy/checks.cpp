#include "checks.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace ninf_tidy {

namespace {

// ------------------------------------------------------------ config

/// Blocking primitives that cannot carry a NINF_BLOCKING annotation
/// (libc / std::).  In-repo blocking APIs are annotated instead.
const std::set<std::string>& blockingPrimitives() {
  static const std::set<std::string> s = {
      "connect", "accept",      "join",   "sleep_for",
      "sleep_until", "usleep",  "nanosleep", "select", "poll",
  };
  return s;
}

/// Lock classes a reactor-context function may acquire: leaf locks
/// with bounded hold times (documented in docs/ANALYSIS.md).
/// "server.pending" qualifies only because the sweeper holds it in
/// bounded chunks — see NinfServer::sweepPending.  "faultplan" is held
/// for a few RNG draws; the fault decorator sleeps only after it drops,
/// and never on the non-blocking path the reactor drives.  The
/// metaserver node's handlers take "directory.global" and
/// "directory.server" (table lookups and status records; the blocking
/// polls of the in-process metaserver hold "directory.poll", which
/// stays off the reactor) and "repl.link" (the shipper holds it for
/// queue operations, never across its I/O).
const std::set<std::string>& reactorSafeLockClasses() {
  static const std::set<std::string> s = {
      "server.reactor.solo", "pool.buffers",  "obs.registry",
      "obs.trace.buffer",    "obs.trace.registry",
      "server.metrics",      "jobqueue",      "registry",
      "log.sink",            "server.cache",  "server.pending",
      "faultplan",           "directory.global",
      "directory.server",    "repl.link",
  };
  return s;
}

/// Call names too generic to build call-graph edges from by name alone
/// (std:: containers and smart pointers); edges through them would be
/// noise.  Typed/qualified calls still resolve precisely.
const std::set<std::string>& noiseCallees() {
  static const std::set<std::string> s = {
      "push_back", "emplace_back", "pop_back",  "pop_front", "push_front",
      "size",      "empty",        "begin",     "end",       "find",
      "count",     "insert",       "erase",     "clear",     "front",
      "back",      "reset",        "release",   "swap",      "at",
      "substr",    "c_str",        "data",      "get",       "move",
      "forward",   "make_unique",  "make_shared", "to_string", "emplace",
      "resize",    "reserve",      "str",       "length",    "append",
      "compare",   "load",         "store",     "fetch_add", "exchange",
      "lock",      "unlock",       "try_lock",  "notify_one", "notify_all",
      "min",       "max",          "abs",       "what",      "value",
      "push",      "pop",          "first",     "second",    "test",
      "wait",      "wait_for",     "wait_until", "flush",    "write",
      "read",      "close",        "open",
  };
  return s;
}

// ------------------------------------------------------------ helpers

struct Ctx {
  const Project& p;
  std::map<std::string, const FileModel*> by_path;

  explicit Ctx(const Project& project) : p(project) {
    for (const auto& fm : p.files) by_path[fm.path] = &fm;
  }

  const std::vector<Token>& toksOf(const FunctionModel& fn) const {
    return by_path.at(fn.file)->toks;
  }
};

/// Type of `var` as seen from inside `fn`: a declaration in the
/// function's own signature/body wins (including `auto`, which makes
/// the type unknown rather than falling back to an unrelated file's
/// variable of the same name); otherwise the file-pair table, then the
/// global table.
std::string typeFor(const Ctx& ctx, const FunctionModel& fn,
                    const std::string& var) {
  if (var.empty() || !fn.has_body) return ctx.p.typeIn(fn.file, var);
  const auto& toks = ctx.toksOf(fn);
  // Include the parameter list: scan back from the body, but never
  // into the previous function's body in the same file.
  std::size_t begin = fn.body_begin > 96 ? fn.body_begin - 96 : 0;
  for (const auto& other : ctx.by_path.at(fn.file)->functions) {
    if (&other != &fn && other.has_body && other.body_end < fn.body_begin) {
      begin = std::max(begin, other.body_end + 1);
    }
  }
  std::set<std::string> found;
  bool declared = false;
  for (std::size_t i = begin + 1; i <= fn.body_end && i < toks.size(); ++i) {
    if (!(toks[i].isIdent() && toks[i].text == var)) continue;
    std::size_t j = i;
    while (j > begin &&
           (toks[j - 1].is("&") || toks[j - 1].is("*") ||
            toks[j - 1].is("const"))) {
      --j;
    }
    if (j == begin || !toks[j - 1].isIdent()) continue;
    const std::string& type = toks[j - 1].text;
    if (type == "auto") {
      declared = true;  // declared here, type unresolvable
    } else if (std::isupper(static_cast<unsigned char>(type[0]))) {
      declared = true;
      found.insert(type);
    }
  }
  if (found.size() == 1) return *found.begin();
  if (declared) return "";
  return ctx.p.typeIn(fn.file, var);
}

/// The mutex expression of a LockGuard/UniqueLock constructor: the
/// last identifier of the first argument, so `g(state.mutex_)`,
/// `g(self->mu_)` and `g(pool().mutex)` all resolve to the member.
struct LockArg {
  std::string var;
  bool more_args = false;  // UniqueLock(m, defer_lock)
};

LockArg lockArgOf(const std::vector<Token>& toks, std::size_t open) {
  LockArg out;
  const std::size_t close = matchBracket(toks, open);
  int depth = 0;
  for (std::size_t j = open + 1; j < close; ++j) {
    const Token& t = toks[j];
    if (t.is("(") || t.is("[") || t.is("{")) ++depth;
    else if (t.is(")") || t.is("]") || t.is("}")) --depth;
    else if (t.is(",") && depth == 0) {
      out.more_args = true;
      break;
    } else if (t.isIdent() && depth == 0) {
      out.var = t.text;
    }
  }
  return out;
}

bool underObsDir(const std::string& path) {
  return path.find("src/obs/") != std::string::npos ||
         path.find("obs/metrics") != std::string::npos ||
         path.find("obs/trace") != std::string::npos;
}

void addDiag(std::vector<Diagnostic>& out, std::string check,
             const std::string& file, int line, std::string message) {
  out.push_back(Diagnostic{std::move(check), file, line, std::move(message)});
}

/// Class that encloses `fn` (lambdas resolve to their outer method's
/// class), or "" for free functions.
std::string enclosingClass(const Project& p, const FunctionModel& fn) {
  std::string q = fn.qname;
  while (true) {  // strip <lambda:N> components
    const auto lam = q.rfind("::<lambda:");
    if (lam == std::string::npos) break;
    q = q.substr(0, lam);
  }
  const auto fn_sep = q.rfind("::");
  if (fn_sep == std::string::npos) return "";
  q = q.substr(0, fn_sep);
  const auto cls_sep = q.rfind("::");
  const std::string cls =
      cls_sep == std::string::npos ? q : q.substr(cls_sep + 2);
  return p.known_classes.count(cls) > 0 ? cls : "";
}

/// Candidate definitions/declarations a call site may resolve to.
std::vector<const FunctionModel*> resolveCall(const Ctx& ctx,
                                              const FunctionModel& caller,
                                              const CallSite& cs) {
  const Project& p = ctx.p;
  if (!cs.qualifier.empty()) {
    if (const auto* f = p.findQualified(cs.qualifier, cs.callee)) return {f};
    return {};
  }
  if (!cs.receiver.empty()) {
    const std::string type = typeFor(ctx, caller, cs.receiver);
    if (!type.empty()) {
      if (const auto* f = p.findQualified(type, cs.callee)) return {f};
      // Known type without a matching method (e.g. a smart-pointer
      // wrapper): fall through to name matching.
    }
  } else {
    // A plain `helper(...)` inside a method is most plausibly a member
    // call (or a virtual on *this): resolve against the caller's own
    // class before falling back to name-wide matching.
    const std::string cls = enclosingClass(p, caller);
    if (!cls.empty()) {
      if (const auto* f = p.findQualified(cls, cs.callee)) return {f};
    }
  }
  if (noiseCallees().count(cs.callee) > 0) return {};
  std::vector<const FunctionModel*> out;
  for (auto [it, last] = p.by_name.equal_range(cs.callee); it != last; ++it) {
    out.push_back(p.all_functions[it->second]);
  }
  if (out.size() > 8) return {};  // too ambiguous to mean anything
  return out;
}

/// One mutex acquisition site inside a function body.
struct LockSite {
  std::string mutex_var;
  std::string guard_var;  // empty for direct m.lock()
  int line = 0;
  std::size_t tok = 0;
};

std::vector<LockSite> scanLockSites(const Ctx& ctx, const FunctionModel& fn) {
  std::vector<LockSite> out;
  const auto& toks = ctx.toksOf(fn);
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    const Token& t = toks[i];
    if (t.isIdent() && (t.text == "LockGuard" || t.text == "UniqueLock") &&
        toks[i + 1].isIdent() &&
        (toks[i + 2].is("(") || toks[i + 2].is("{"))) {
      // LockGuard g(mutex_);  LockGuard g(state.mutex_);
      // UniqueLock lock(mutex_, defer_lock);
      const LockArg arg = lockArgOf(toks, i + 2);
      if (!arg.var.empty()) {
        out.push_back(LockSite{arg.var, toks[i + 1].text, t.line, i});
      }
      continue;
    }
    if (t.isIdent() && t.text == "lock" && toks[i + 1].is("(") &&
        i >= 2 && (toks[i - 1].is(".") || toks[i - 1].is("->")) &&
        toks[i - 2].isIdent() &&
        ctx.p.mutex_classes.count(toks[i - 2].text) > 0) {
      out.push_back(LockSite{toks[i - 2].text, "", t.line, i});
    }
  }
  return out;
}

// -------------------------------------------- check: reactor-blocking

void checkReactorBlocking(const Ctx& ctx, std::vector<Diagnostic>& out) {
  const Project& p = ctx.p;
  std::deque<const FunctionModel*> queue;
  std::set<const FunctionModel*> visited;
  std::map<const FunctionModel*, const FunctionModel*> parent;

  for (const auto* fn : p.all_functions) {
    if (fn->reactor_context && fn->has_body) {
      queue.push_back(fn);
      visited.insert(fn);
    }
  }

  auto pathTo = [&](const FunctionModel* fn) {
    std::vector<std::string> hops;
    for (const FunctionModel* f = fn; f != nullptr;) {
      hops.push_back(f->qname);
      auto it = parent.find(f);
      f = it == parent.end() ? nullptr : it->second;
    }
    std::reverse(hops.begin(), hops.end());
    std::string s;
    for (const auto& h : hops) {
      if (!s.empty()) s += " -> ";
      s += h;
    }
    return s;
  };

  while (!queue.empty()) {
    const FunctionModel* fn = queue.front();
    queue.pop_front();

    for (const LockSite& ls : scanLockSites(ctx, *fn)) {
      const std::string cls = p.lockClassIn(fn->file, ls.mutex_var);
      if (cls.empty()) {
        addDiag(out, "reactor-blocking", fn->file, ls.line,
                "reactor context acquires mutex '" + ls.mutex_var +
                    "' with unknown/ambiguous lock class (reached via " +
                    pathTo(fn) + ")");
      } else if (reactorSafeLockClasses().count(cls) == 0) {
        addDiag(out, "reactor-blocking", fn->file, ls.line,
                "reactor context acquires non-leaf lock class '" + cls +
                    "' via mutex '" + ls.mutex_var + "' (reached via " +
                    pathTo(fn) + ")");
      }
    }

    for (const CallSite& cs : fn->calls) {
      if (blockingPrimitives().count(cs.callee) > 0) {
        addDiag(out, "reactor-blocking", fn->file, cs.line,
                "reactor context calls blocking primitive '" + cs.callee +
                    "' (reached via " + pathTo(fn) + ")");
        continue;
      }
      if ((cs.callee == "wait" || cs.callee == "wait_for" ||
           cs.callee == "wait_until") &&
          typeFor(ctx, *fn, cs.receiver) == "CondVar") {
        addDiag(out, "reactor-blocking", fn->file, cs.line,
                "reactor context waits on CondVar '" + cs.receiver +
                    "' (reached via " + pathTo(fn) + ")");
        continue;
      }
      if ((cs.callee == "get" || cs.callee == "wait") &&
          typeFor(ctx, *fn, cs.receiver) == "future") {
        addDiag(out, "reactor-blocking", fn->file, cs.line,
                "reactor context blocks on future '" + cs.receiver +
                    "' (reached via " + pathTo(fn) + ")");
        continue;
      }
      const auto candidates = resolveCall(ctx, *fn, cs);
      bool blocking = false;
      for (const auto* cand : candidates) {
        if (cand->blocking) blocking = true;
      }
      if (blocking) {
        addDiag(out, "reactor-blocking", fn->file, cs.line,
                "reactor context calls NINF_BLOCKING API '" + cs.callee +
                    "' (reached via " + pathTo(fn) + ")");
        continue;
      }
      for (const auto* cand : candidates) {
        if (cand->has_body && visited.insert(cand).second) {
          parent[cand] = fn;
          queue.push_back(cand);
        }
      }
    }
  }
}

// --------------------------------------------- check: codec-symmetry

/// Normalized wire primitive per put/get call, or "" if not one.
std::string primOp(const std::string& callee) {
  static const std::map<std::string, std::string> prims = {
      {"putU32", "u32"},    {"getU32", "u32"},    {"checkedCount", "u32"},
      {"putU64", "u64"},    {"getU64", "u64"},
      {"putU16", "u16"},    {"getU16", "u16"},
      {"putU8", "u8"},      {"getU8", "u8"},
      {"putDouble", "f64"}, {"getDouble", "f64"},
      {"putBool", "bool"},  {"getBool", "bool"},
      {"putString", "str"}, {"getString", "str"},
      {"putRaw", "raw"},    {"getRaw", "raw"},
      {"putBytes", "raw"},  {"getBytes", "raw"},
      {"putStrings", "str-list"}, {"getStrings", "str-list"},
  };
  auto it = prims.find(callee);
  return it == prims.end() ? "" : it->second;
}

/// Ordered wire ops for one codec function.  Ops inside loops carry a
/// trailing "*"; nested codecs appear as "nested:Type" (or "nested:?"
/// when the operand's type cannot be resolved — "?" matches any type).
std::vector<std::string> codecOps(const Ctx& ctx, const FunctionModel& fn) {
  const auto& toks = ctx.toksOf(fn);
  // Loop body ranges (for/while/do) inside this function.
  std::vector<std::pair<std::size_t, std::size_t>> loops;
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    const Token& t = toks[i];
    if (t.isIdent() && (t.text == "for" || t.text == "while") &&
        toks[i + 1].is("(")) {
      const std::size_t close = matchBracket(toks, i + 1);
      if (toks[close + 1].is("{")) {
        loops.emplace_back(close + 1, matchBracket(toks, close + 1));
      } else {
        // Unbraced single-statement loop body.
        std::size_t j = close + 1;
        while (j < fn.body_end && !toks[j].is(";")) ++j;
        loops.emplace_back(close + 1, j);
      }
    } else if (t.isIdent() && t.text == "do" && toks[i + 1].is("{")) {
      loops.emplace_back(i + 1, matchBracket(toks, i + 1));
    }
  }
  auto inLoop = [&](std::size_t i) {
    for (const auto& [b, e] : loops) {
      if (i > b && i < e) return true;
    }
    return false;
  };

  std::vector<std::string> ops;
  for (const CallSite& cs : fn.calls) {
    std::string op = primOp(cs.callee);
    if (op.empty()) {
      if (cs.callee == "encode" && !cs.receiver.empty()) {
        const std::string type = typeFor(ctx, fn, cs.receiver);
        op = "nested:" + (type.empty() ? std::string("?") : type);
      } else if (cs.callee == "decode" && !cs.qualifier.empty()) {
        op = "nested:" + cs.qualifier;
      } else {
        continue;
      }
    }
    if (inLoop(cs.tok)) op += "*";
    ops.push_back(std::move(op));
  }
  return ops;
}

bool opsMatch(const std::string& a, const std::string& b) {
  if (a == b) return true;
  // Loop markers must agree; nested:? is a type wildcard.
  const bool la = !a.empty() && a.back() == '*';
  const bool lb = !b.empty() && b.back() == '*';
  if (la != lb) return false;
  const std::string ba = la ? a.substr(0, a.size() - 1) : a;
  const std::string bb = lb ? b.substr(0, b.size() - 1) : b;
  if (ba == bb) return true;
  const bool na = ba.rfind("nested:", 0) == 0;
  const bool nb = bb.rfind("nested:", 0) == 0;
  return na && nb && (ba == "nested:?" || bb == "nested:?");
}

std::string joinOps(const std::vector<std::string>& ops) {
  std::string s;
  for (const auto& op : ops) {
    if (!s.empty()) s += " ";
    s += op;
  }
  return s.empty() ? "<none>" : s;
}

void checkCodecSymmetry(const Ctx& ctx, std::vector<Diagnostic>& out) {
  struct Pair {
    const FunctionModel* enc = nullptr;
    const FunctionModel* dec = nullptr;
  };
  std::map<std::string, Pair> pairs;
  auto prefixOf = [](const FunctionModel& fn) {
    const auto pos = fn.qname.rfind("::");
    return pos == std::string::npos ? std::string() : fn.qname.substr(0, pos);
  };
  for (const auto* fn : ctx.p.all_functions) {
    if (!fn->has_body || fn->is_lambda) continue;
    const std::string prefix = prefixOf(*fn);
    if (fn->name == "encode") pairs[prefix + "|ed"].enc = fn;
    else if (fn->name == "decode") pairs[prefix + "|ed"].dec = fn;
    else if (fn->name == "toBytes") pairs[prefix + "|tb"].enc = fn;
    else if (fn->name == "fromBytes") pairs[prefix + "|tb"].dec = fn;
    else if (fn->name.rfind("encode", 0) == 0 && fn->name.size() > 6) {
      pairs[prefix + "|f:" + fn->name.substr(6)].enc = fn;
    } else if (fn->name.rfind("decode", 0) == 0 && fn->name.size() > 6) {
      pairs[prefix + "|f:" + fn->name.substr(6)].dec = fn;
    }
  }
  for (const auto& [key, pr] : pairs) {
    if (pr.enc == nullptr || pr.dec == nullptr) continue;
    const auto enc_ops = codecOps(ctx, *pr.enc);
    const auto dec_ops = codecOps(ctx, *pr.dec);
    if (enc_ops.empty() && dec_ops.empty()) continue;  // not wire codecs
    std::size_t i = 0;
    const std::size_t n = std::min(enc_ops.size(), dec_ops.size());
    while (i < n && opsMatch(enc_ops[i], dec_ops[i])) ++i;
    if (i == enc_ops.size() && i == dec_ops.size()) continue;
    std::ostringstream msg;
    msg << "codec asymmetry between " << pr.enc->qname << " and "
        << pr.dec->qname << ": ";
    if (i < n) {
      msg << "op " << (i + 1) << " encodes '" << enc_ops[i]
          << "' but decodes '" << dec_ops[i] << "'";
    } else if (enc_ops.size() > dec_ops.size()) {
      msg << "encode writes " << enc_ops.size() << " ops, decode reads only "
          << dec_ops.size() << " (missing '" << enc_ops[i] << "')";
    } else {
      msg << "decode reads " << dec_ops.size() << " ops, encode writes only "
          << enc_ops.size() << " (extra '" << dec_ops[i] << "')";
    }
    msg << " [encode: " << joinOps(enc_ops) << "] [decode: "
        << joinOps(dec_ops) << "]";
    addDiag(out, "codec-symmetry", pr.enc->file, pr.enc->line, msg.str());
  }
}

// ---------------------------------------------- check: pool-lifetime

bool pooledTypeName(const Token& t) {
  return t.isIdent() && (t.text == "PooledBuffer" || t.text == "Frame");
}

void checkPoolLifetime(const Ctx& ctx, std::vector<Diagnostic>& out) {
  for (const auto& fm : ctx.p.files) {
    const auto& toks = fm.toks;

    // R3: static storage of pooled buffers (directly or in containers).
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!(toks[i].isIdent() && toks[i].text == "static")) continue;
      for (std::size_t j = i + 1; j < toks.size() && j < i + 16; ++j) {
        if (toks[j].is(";") || toks[j].is("(")) break;
        if (toks[j].isIdent() && toks[j].text == "PooledBuffer") {
          addDiag(out, "pool-lifetime", fm.path, toks[i].line,
                  "PooledBuffer stored with static storage duration "
                  "outlives its pool's thread caches");
          break;
        }
      }
    }

    for (const auto& fn : fm.functions) {
      if (!fn.has_body) continue;
      std::set<std::string> pooled;

      // Pass 1: pooled locals/params, and R1 (copy instead of move).
      for (std::size_t i = fn.body_begin; i + 2 < fn.body_end; ++i) {
        if (pooledTypeName(toks[i]) && toks[i + 1].isIdent()) {
          const Token& after = toks[i + 2];
          if (after.is(";") || after.is("=") || after.is("{") ||
              after.is("(") || after.is(",") || after.is(")") ||
              after.is("&")) {
            const std::string var =
                toks[i + 1 + (after.is("&") ? 1 : 0)].isIdent()
                    ? toks[i + 1].text
                    : "";
            if (!var.empty()) pooled.insert(var);
            if (after.is("=")) {
              std::size_t j = i + 3;
              bool deref = false;
              if (toks[j].is("*")) {
                deref = true;
                ++j;
              }
              if (toks[j].isIdent() && toks[j + 1].is(";") &&
                  toks[j].text != "nullptr") {
                addDiag(out, "pool-lifetime", fm.path, toks[i].line,
                        std::string(deref ? "dereferenced " : "") +
                            "pooled buffer '" + toks[j].text +
                            "' initialized '" + toks[i + 1].text +
                            "' by copy; use std::move");
              }
            }
          }
          continue;
        }
        // `auto v = acquireBuffer(...)` / flattenFramePooled(...)
        if (toks[i].isIdent() && toks[i].text == "auto") {
          std::size_t j = i + 1;
          while (toks[j].is("*") || toks[j].is("&") || toks[j].is("const")) {
            ++j;
          }
          if (toks[j].isIdent() && toks[j + 1].is("=")) {
            for (std::size_t k = j + 2; k < fn.body_end && k < j + 12; ++k) {
              if (toks[k].is(";")) break;
              if (toks[k].isIdent() && (toks[k].text == "acquireBuffer" ||
                                        toks[k].text == "flattenFramePooled")) {
                pooled.insert(toks[j].text);
                break;
              }
            }
          }
        }
      }
      if (pooled.empty()) continue;

      // Pass 2: escapes.
      for (std::size_t i = fn.body_begin; i + 4 < fn.body_end; ++i) {
        // R4: returning a view of a local pooled buffer.
        if (toks[i].isIdent() && toks[i].text == "return" &&
            toks[i + 1].isIdent() && pooled.count(toks[i + 1].text) > 0 &&
            (toks[i + 2].is(".") || toks[i + 2].is("->")) &&
            toks[i + 3].isIdent() &&
            (toks[i + 3].text == "data" || toks[i + 3].text == "span" ||
             toks[i + 3].text == "writableSpan") &&
            toks[i + 4].is("(")) {
          addDiag(out, "pool-lifetime", fm.path, toks[i].line,
                  "returning " + toks[i + 3].text + "() view of local "
                  "pooled buffer '" + toks[i + 1].text +
                  "' dangles once the buffer is released");
          continue;
        }
        // R2: binding .data() into a freshly declared pointer.
        if (toks[i].is("=") && toks[i + 1].isIdent() &&
            pooled.count(toks[i + 1].text) > 0 &&
            (toks[i + 2].is(".") || toks[i + 2].is("->")) &&
            toks[i + 3].isIdent() && toks[i + 3].text == "data" &&
            toks[i + 4].is("(")) {
          // Declaration if "= " is preceded by `Type [*&] name` rather
          // than a member/array assignment target.
          if (i >= 2 && toks[i - 1].isIdent() &&
              (toks[i - 2].is("*") || toks[i - 2].is("&") ||
               toks[i - 2].isIdent())) {
            addDiag(out, "pool-lifetime", fm.path, toks[i].line,
                    "data() of pooled buffer '" + toks[i + 1].text +
                        "' bound to named pointer '" + toks[i - 1].text +
                        "' can outlive a move/reset of the buffer");
          }
        }
      }
    }
  }
}

// ------------------------------------------ check: metrics-under-lock

void checkMetricsUnderLock(const Ctx& ctx, std::vector<Diagnostic>& out) {
  const Project& p = ctx.p;

  // Functions whose body touches the obs registry or updates a metric;
  // calling one inside a critical section is the same hazard one hop
  // removed.
  std::set<std::string> metric_fns;
  for (const auto& fm : p.files) {
    if (underObsDir(fm.path)) continue;
    for (const auto& fn : fm.functions) {
      if (!fn.has_body || fn.is_lambda) continue;
      for (const CallSite& cs : fn.calls) {
        const bool registry =
            (cs.callee == "counter" || cs.callee == "gauge" ||
             cs.callee == "histogram") &&
            cs.qualifier == "obs";
        const std::string rtype = typeFor(ctx, fn, cs.receiver);
        const bool update =
            (cs.callee == "add" && rtype == "Counter") ||
            (cs.callee == "set" && rtype == "Gauge") ||
            (cs.callee == "observe" && rtype == "Histogram");
        if (registry || update) {
          metric_fns.insert(fn.name);
          break;
        }
      }
    }
  }

  for (const auto& fm : p.files) {
    if (underObsDir(fm.path)) continue;
    const auto& toks = fm.toks;
    for (const auto& fn : fm.functions) {
      if (!fn.has_body) continue;

      struct Active {
        std::string guard_var;  // "" for direct m.lock()
        std::string mutex_var;
        int depth = 0;
        bool held = true;
      };
      std::vector<Active> locks;
      int depth = 0;

      auto anyHeld = [&]() -> const Active* {
        for (const auto& a : locks) {
          if (a.held) return &a;
        }
        return nullptr;
      };

      for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
        const Token& t = toks[i];
        if (t.is("{")) {
          ++depth;
          continue;
        }
        if (t.is("}")) {
          --depth;
          locks.erase(std::remove_if(locks.begin(), locks.end(),
                                     [&](const Active& a) {
                                       return a.depth > depth;
                                     }),
                      locks.end());
          continue;
        }
        if (t.isIdent() && (t.text == "LockGuard" || t.text == "UniqueLock") &&
            toks[i + 1].isIdent() &&
            (toks[i + 2].is("(") || toks[i + 2].is("{"))) {
          const LockArg arg = lockArgOf(toks, i + 2);
          if (!arg.var.empty()) {
            // UniqueLock(m, defer_lock) starts unheld.
            locks.push_back(
                Active{toks[i + 1].text, arg.var, depth, !arg.more_args});
          }
          continue;
        }
        if (!t.isIdent() || !toks[i + 1].is("(")) continue;

        // UniqueLock unlock/relock and direct mutex lock/unlock.
        if ((t.text == "lock" || t.text == "unlock") && i >= 2 &&
            (toks[i - 1].is(".") || toks[i - 1].is("->")) &&
            toks[i - 2].isIdent()) {
          const std::string& recv = toks[i - 2].text;
          bool handled = false;
          for (auto& a : locks) {
            if (a.guard_var == recv || a.mutex_var == recv) {
              a.held = (t.text == "lock");
              handled = true;
            }
          }
          if (!handled && t.text == "lock" &&
              p.mutex_classes.count(recv) > 0) {
            locks.push_back(Active{"", recv, depth, true});
          }
          continue;
        }

        const Active* held = anyHeld();
        if (held == nullptr) continue;

        std::string what;
        if ((t.text == "counter" || t.text == "gauge" ||
             t.text == "histogram") &&
            i >= 2 && toks[i - 1].is("::") && toks[i - 2].isIdent() &&
            toks[i - 2].text == "obs") {
          what = "obs::" + t.text + "() registry access";
        } else if (t.text == "add" || t.text == "set" ||
                   t.text == "observe") {
          if (i >= 2 && (toks[i - 1].is(".") || toks[i - 1].is("->")) &&
              toks[i - 2].isIdent()) {
            const std::string rtype = typeFor(ctx, fn, toks[i - 2].text);
            if ((t.text == "add" && rtype == "Counter") ||
                (t.text == "set" && rtype == "Gauge") ||
                (t.text == "observe" && rtype == "Histogram")) {
              what = "metric update '" + toks[i - 2].text + "." + t.text +
                     "()'";
            }
          }
        } else if (metric_fns.count(t.text) > 0) {
          what = "call to '" + t.text + "()' which touches metrics";
        }
        if (!what.empty()) {
          const std::string cls = p.lockClassIn(fm.path, held->mutex_var);
          addDiag(out, "metrics-under-lock", fm.path, t.line,
                  what + " inside critical section of '" +
                      (cls.empty() ? held->mutex_var : cls) +
                      "' — hoist it out of the locked region");
        }
      }
    }
  }
}

// ----------------------------------------------------- orchestration

bool suppressed(const Project& p, const Diagnostic& d) {
  for (const auto& fm : p.files) {
    if (fm.path != d.file) continue;
    for (const auto& s : fm.suppressions) {
      // The macro call itself may wrap over a couple of lines; cover
      // the statement right below it.
      if ((s.check == d.check || s.check == "*") && d.line >= s.line &&
          d.line - s.line <= 3) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

const std::vector<std::string>& allCheckNames() {
  static const std::vector<std::string> names = {
      "reactor-blocking", "codec-symmetry", "pool-lifetime",
      "metrics-under-lock"};
  return names;
}

std::vector<Diagnostic> runChecks(const Project& project,
                                  const CheckOptions& options) {
  Ctx ctx(project);
  auto enabled = [&](const char* name) {
    if (options.checks.empty()) return true;
    return std::find(options.checks.begin(), options.checks.end(), name) !=
           options.checks.end();
  };
  std::vector<Diagnostic> out;
  if (enabled("reactor-blocking")) checkReactorBlocking(ctx, out);
  if (enabled("codec-symmetry")) checkCodecSymmetry(ctx, out);
  if (enabled("pool-lifetime")) checkPoolLifetime(ctx, out);
  if (enabled("metrics-under-lock")) checkMetricsUnderLock(ctx, out);

  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](const Diagnostic& d) {
                             return suppressed(project, d);
                           }),
            out.end());
  // Dedup (a call graph can reach one site along several paths) and
  // order for stable output.
  std::sort(out.begin(), out.end(), [](const Diagnostic& a,
                                       const Diagnostic& b) {
    return std::tie(a.file, a.line, a.check, a.message) <
           std::tie(b.file, b.line, b.check, b.message);
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Diagnostic& a, const Diagnostic& b) {
                          return a.file == b.file && a.line == b.line &&
                                 a.check == b.check;
                        }),
            out.end());
  return out;
}

std::vector<Diagnostic> validateSuppressions(const Project& project) {
  std::vector<Diagnostic> out;
  const auto& names = allCheckNames();
  for (const auto& fm : project.files) {
    for (const auto& s : fm.suppressions) {
      if (s.check != "*" &&
          std::find(names.begin(), names.end(), s.check) == names.end()) {
        addDiag(out, "suppression-audit", fm.path, s.line,
                "NINF_TIDY_SUPPRESS names unknown check '" + s.check + "'");
      }
      if (s.reason.size() < 10 ||
          s.reason.find(' ') == std::string::npos) {
        addDiag(out, "suppression-audit", fm.path, s.line,
                "NINF_TIDY_SUPPRESS needs a real justification sentence, "
                "got: '" + s.reason + "'");
      }
    }
  }
  return out;
}

}  // namespace ninf_tidy
