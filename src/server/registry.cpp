#include "server/registry.h"

#include "common/error.h"
#include "idl/parser.h"
#include "numlib/dos.h"
#include "numlib/ep.h"
#include "numlib/lu.h"
#include "numlib/matrix.h"
#include "numlib/mmul.h"

namespace ninf::server {

using idl::InterfaceInfo;
using idl::Mode;
using idl::ScalarType;

std::int64_t CallContext::intArg(const std::string& name) const {
  const std::size_t i = info_.paramIndex(name);
  const auto& p = info_.params[i];
  NINF_REQUIRE(p.isScalar() && (p.type == ScalarType::Int ||
                                p.type == ScalarType::Long),
               "intArg on non-integer parameter " + name);
  return data_.scalar_ints[i];
}

double CallContext::doubleArg(const std::string& name) const {
  const std::size_t i = info_.paramIndex(name);
  const auto& p = info_.params[i];
  NINF_REQUIRE(p.isScalar() && (p.type == ScalarType::Float ||
                                p.type == ScalarType::Double),
               "doubleArg on non-floating parameter " + name);
  return data_.scalar_doubles[i];
}

std::span<const double> CallContext::arrayIn(const std::string& name) const {
  const std::size_t i = info_.paramIndex(name);
  NINF_REQUIRE(!info_.params[i].isScalar(), "arrayIn on scalar " + name);
  NINF_REQUIRE(info_.params[i].shippedIn(),
               "arrayIn on output-only parameter " + name);
  return data_.arrays[i];
}

std::span<double> CallContext::arrayOut(const std::string& name) {
  const std::size_t i = info_.paramIndex(name);
  NINF_REQUIRE(!info_.params[i].isScalar(), "arrayOut on scalar " + name);
  NINF_REQUIRE(info_.params[i].shippedOut(),
               "arrayOut on input-only parameter " + name);
  return data_.arrays[i];
}

void CallContext::setInt(const std::string& name, std::int64_t v) {
  const std::size_t i = info_.paramIndex(name);
  NINF_REQUIRE(info_.params[i].shippedOut(), "setInt on input " + name);
  data_.scalar_ints[i] = v;
}

void CallContext::setDouble(const std::string& name, double v) {
  const std::size_t i = info_.paramIndex(name);
  NINF_REQUIRE(info_.params[i].shippedOut(), "setDouble on input " + name);
  data_.scalar_doubles[i] = v;
}

const InterfaceInfo& Registry::add(const std::string& idl_text,
                                   Handler handler) {
  return add(idl::parseSingle(idl_text), std::move(handler));
}

const InterfaceInfo& Registry::add(InterfaceInfo info, Handler handler) {
  NINF_REQUIRE(handler != nullptr, "executable needs a handler");
  NINF_REQUIRE(info.validate(), "invalid interface " + info.name);
  // The client API ships double arrays only (paper footnote 1); reject
  // other array element types at registration so failures are immediate.
  for (const auto& p : info.params) {
    if (!p.isScalar() && p.type != ScalarType::Double) {
      throw IdlError("array parameter '" + p.name + "' of " + info.name +
                     "' must be double (client API limitation)");
    }
  }
  auto exec = std::make_shared<NinfExecutable>(
      NinfExecutable{std::move(info), std::move(handler)});
  LockGuard lock(mutex_);
  auto [it, inserted] = map_.emplace(exec->info.name, exec);
  if (!inserted) {
    throw Error("executable '" + exec->info.name + "' already registered");
  }
  return it->second->info;
}

const NinfExecutable& Registry::find(const std::string& name) const {
  LockGuard lock(mutex_);
  auto it = map_.find(name);
  if (it == map_.end()) throw NotFoundError("executable '" + name + "'");
  return *it->second;
}

bool Registry::contains(const std::string& name) const {
  LockGuard lock(mutex_);
  return map_.count(name) != 0;
}

std::vector<std::string> Registry::names() const {
  LockGuard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(map_.size());
  for (const auto& [name, exec] : map_) out.push_back(name);
  return out;
}

std::size_t Registry::size() const {
  LockGuard lock(mutex_);
  return map_.size();
}

bool Registry::isIdempotent(std::string_view name) const {
  LockGuard lock(mutex_);
  auto it = map_.find(name);
  return it != map_.end() && it->second->info.idempotent;
}

void registerStandardExecutables(Registry& registry, std::size_t workers) {
  // dmmul: the paper's running example (section 2.3), including its IDL.
  registry.add(
      R"IDL(Define dmmul(mode_in long n,
                      mode_in double A[n][n],
                      mode_in double B[n][n],
                      mode_out double C[n][n])
         "dmmul is double precision matrix multiply",
         CalcOrder 2*n^3,
         Idempotent,
         Calls "C" mmul(n, A, B, C);)IDL",
      [](CallContext& ctx) {
        const auto n = static_cast<std::size_t>(ctx.intArg("n"));
        numlib::dmmul(n, ctx.arrayIn("A"), ctx.arrayIn("B"),
                      ctx.arrayOut("C"));
      });

  // linpack: LU-decompose A and solve A x = b (dgefa + dgesl), the paper's
  // communication-heavy benchmark.  `opt` selects the library variant:
  // 0 = reference dgefa (standard routine of Figure 4), 1 = blocked
  // (glub4/gslv4-style), 2 = data-parallel (libsci-style).
  registry.add(
      R"IDL(Define linpack(mode_in long n,
                        mode_in long opt,
                        mode_in double A[n][n],
                        mode_in double b[n],
                        mode_out double x[n])
         "LU decomposition (dgefa) and backward substitution (dgesl)",
         Required "libsci.a",
         CalcOrder 2*n^3/3 + 2*n^2,
         Idempotent,
         Calls "C" linpack_solve(n, opt, A, b, x);)IDL",
      [workers](CallContext& ctx) {
        const auto n = static_cast<std::size_t>(ctx.intArg("n"));
        const auto opt = ctx.intArg("opt");
        numlib::Matrix a(n, n, ctx.arrayIn("A"));
        const auto b = ctx.arrayIn("b");
        const auto x = ctx.arrayOut("x");
        std::copy(b.begin(), b.end(), x.begin());
        const auto variant = opt == 0   ? numlib::LuVariant::Reference
                             : opt == 1 ? numlib::LuVariant::Blocked
                                        : numlib::LuVariant::Parallel;
        numlib::luSolve(a, x, variant, workers);
      });

  // dos: Density-Of-States estimation, the EP-style computational
  // chemistry application of section 4.3.1.  Diagonalizes GOE samples
  // [first, first+count) of dimension n and returns the eigenvalue
  // histogram over `bins` cells spanning [-2.5, 2.5].
  registry.add(
      R"IDL(Define dos(mode_in long n,
                   mode_in long first,
                   mode_in long count,
                   mode_in long bins,
                   mode_out double hist[bins])
         "Density-Of-States histogram of random Hamiltonians",
         CalcOrder 9*n^3*count,
         Idempotent,
         Calls "C" dos_kernel(n, first, count, bins, hist);)IDL",
      [](CallContext& ctx) {
        const auto result = numlib::runDos(
            static_cast<std::size_t>(ctx.intArg("n")), ctx.intArg("first"),
            ctx.intArg("count"),
            static_cast<std::size_t>(ctx.intArg("bins")));
        auto hist = ctx.arrayOut("hist");
        for (std::size_t i = 0; i < hist.size(); ++i) {
          hist[i] = static_cast<double>(result.counts[i]);
        }
      });

  // ep: NAS EP over pairs [first, first + count) of the global sequence;
  // returns the Gaussian sums and annulus counts.  Communication is O(1).
  registry.add(
      R"IDL(Define ep(mode_in long first,
                   mode_in long count,
                   mode_out double sums[2],
                   mode_out double q[10])
         "NAS Parallel Benchmarks EP kernel (Gaussian pair tallies)",
         CalcOrder 2*count,
         Idempotent,
         Calls "C" ep_kernel(first, count, sums, q);)IDL",
      [](CallContext& ctx) {
        const auto result =
            numlib::runEp(ctx.intArg("first"), ctx.intArg("count"));
        auto sums = ctx.arrayOut("sums");
        sums[0] = result.sx;
        sums[1] = result.sy;
        auto q = ctx.arrayOut("q");
        for (std::size_t i = 0; i < q.size(); ++i) {
          q[i] = static_cast<double>(result.q[i]);
        }
      });
}

}  // namespace ninf::server
