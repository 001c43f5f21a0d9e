// Source model: the per-file and cross-file facts the checks consume.
//
// ninf-tidy parses each file once into a FileModel (functions with body
// token ranges, annotations, suppressions) and merges cross-file tables
// into a Project (mutex lock classes, declared variable types, struct
// field types, annotated blocking/reactor functions).  The parser is a
// pragmatic recognizer for this repo's dialect, not a general C++
// frontend: constructs it does not understand are skipped, never
// guessed at.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace ninf_tidy {

/// One call expression inside a function body.
struct CallSite {
  std::string callee;     // simple name, e.g. "recvAll"
  std::string qualifier;  // "Stream" for Stream::recvAll(...), else ""
  std::string receiver;   // "stream" for stream->recvAll(...), else ""
  int line = 0;
  std::size_t tok = 0;  // index of the callee token in the file stream
};

struct FunctionModel {
  std::string qname;  // "ninf::server::Reactor::postSolo" or ".../<lambda:99>"
  std::string name;   // last component
  std::string file;
  int line = 0;       // line of the name token (diagnostics anchor)
  bool is_lambda = false;
  bool reactor_context = false;  // NINF_REACTOR_CONTEXT on decl/def,
                                 // or a lambda passed to postSolo()
                                 // or postAt()
  bool blocking = false;         // NINF_BLOCKING on decl/def
  bool has_body = false;
  std::size_t body_begin = 0;  // token index of the opening '{'
  std::size_t body_end = 0;    // token index of the matching '}'
  std::vector<CallSite> calls;
};

struct Suppression {
  std::string file;
  int line = 0;
  std::string check;   // check name or "*"
  std::string reason;  // must be a real justification (CI-audited)
};

struct FileModel {
  std::string path;
  std::vector<Token> toks;
  std::vector<FunctionModel> functions;
  std::vector<Suppression> suppressions;
  /// Per-file tables; preferred over the merged Project tables because
  /// common names ("mutex_", "stream_") mean different things in
  /// different translation units.
  std::map<std::string, std::set<std::string>> mutex_classes;
  std::map<std::string, std::set<std::string>> var_types;
};

struct Project {
  std::vector<FileModel> files;

  /// mutex variable name -> set of lock-class strings seen for it.
  /// (A variable declared with conflicting classes in different files
  /// stays ambiguous and is treated as non-leaf by the reactor check.)
  std::map<std::string, std::set<std::string>> mutex_classes;

  /// variable/field name -> set of declared type names (last component,
  /// e.g. "CondVar", "PooledBuffer", "Counter").  Merged across files;
  /// ambiguous names resolve to no type.
  std::map<std::string, std::set<std::string>> var_types;

  /// simple function name -> indices into all_functions.
  std::multimap<std::string, std::size_t> by_name;
  std::vector<const FunctionModel*> all_functions;

  /// Class names that carry at least one method definition we parsed.
  std::set<std::string> known_classes;

  const FunctionModel* findQualified(const std::string& cls,
                                     const std::string& fn) const;
  /// The single declared type of `var`, or "" when unknown/ambiguous.
  std::string typeOf(const std::string& var) const;
  /// The single lock class of mutex variable `var`, or "" when
  /// unknown/ambiguous.
  std::string lockClassOf(const std::string& var) const;
  /// Like typeOf/lockClassOf, but resolved against `file` and its
  /// header/impl sibling (same path stem) first.  A name declared in
  /// the file pair wins over — and shadows — the global table; only a
  /// name absent from the pair falls back to the merged view.
  std::string typeIn(const std::string& file, const std::string& var) const;
  std::string lockClassIn(const std::string& file,
                          const std::string& var) const;
};

/// Parse one file's text into a FileModel.
FileModel parseFile(const std::string& path, const std::string& text);

/// Merge per-file models into the cross-file Project tables and
/// propagate annotations between declarations and definitions that
/// share a qualified name.
Project buildProject(std::vector<FileModel> files);

/// Find the index of the matching close token for the open bracket at
/// `open` ("(", "[", "{", balanced over all three).  Returns the index
/// of the closer, or toks.size()-1 when unbalanced.
std::size_t matchBracket(const std::vector<Token>& toks, std::size_t open);

}  // namespace ninf_tidy
