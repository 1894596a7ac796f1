#include "combinatorics/implicit_family.hpp"

#include <algorithm>
#include <cmath>

#include "util/math.hpp"
#include "util/primes.hpp"
#include "util/rng.hpp"

namespace wakeup::comb {

namespace detail {

std::uint32_t clamp_family_k(std::uint32_t n, std::uint32_t k) noexcept {
  if (k < 1) k = 1;
  if (k > n) k = n;
  return k;
}

std::size_t randomized_length(std::uint32_t n, std::uint32_t k, double c) {
  // Length c * k * max(1, log2(n/k)) — the probabilistic-method size.
  const double lg = std::max(1.0, std::log2(static_cast<double>(n) / static_cast<double>(k)));
  return static_cast<std::size_t>(std::ceil(c * static_cast<double>(k) * lg));
}

std::uint64_t randomized_stream_seed(std::uint64_t seed, std::uint32_t n,
                                     std::uint32_t k) noexcept {
  return util::hash_words({seed, kRandomFamilyTag, n, k});
}

bool randomized_member(std::uint64_t stream_state, std::uint64_t j, std::uint64_t mixed_u,
                       double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  // One counter-RNG draw per (set, station) coordinate — the 53-bit
  // uniform-in-[0,1) of util::Rng::uniform01 compared in integer form, as a
  // pure function of the coordinates so membership is random-accessible.
  const std::uint64_t h =
      util::hash_combine(util::hash_combine(stream_state, util::mix64(j)), mixed_u);
  return h < util::bernoulli_threshold(p);
}

std::vector<std::uint64_t> mod_prime_primes(std::uint32_t n, std::uint32_t k) {
  // For x != y in [n], |x - y| < n has at most floor(log2 n) prime factors,
  // so (k-1)*floor(log2 n) + 1 primes guarantee one that separates x from
  // every other member of X.
  const unsigned lg = util::floor_log2(n == 0 ? 1 : n);
  const std::size_t prime_count =
      static_cast<std::size_t>(k > 1 ? (k - 1) * (lg == 0 ? 1 : lg) : 0) + 1;
  return util::first_primes_from(2, prime_count);
}

unsigned gf_digits_needed(std::uint64_t n, std::uint64_t q) noexcept {
  unsigned d = 1;
  std::uint64_t span = q;
  while (span < n) {
    span *= q;
    ++d;
  }
  return d;
}

std::uint64_t gf_poly_eval(std::uint64_t u, std::uint64_t q, unsigned digits,
                           std::uint64_t a) noexcept {
  // Extract digits little-endian, evaluate via Horner from the top.
  std::uint64_t coeff[64];
  for (unsigned d = 0; d < digits; ++d) {
    coeff[d] = u % q;
    u /= q;
  }
  std::uint64_t acc = 0;
  for (unsigned d = digits; d-- > 0;) {
    acc = (acc * a + coeff[d]) % q;
  }
  return acc;
}

std::uint64_t kautz_singleton_q(std::uint32_t n, std::uint32_t k) noexcept {
  // Fixed point: q prime with q > (k-1)*(L-1) where L = digits base q.
  std::uint64_t q = util::next_prime(std::max<std::uint64_t>(2, k));
  for (;;) {
    const unsigned L = gf_digits_needed(n, q);
    const std::uint64_t need = static_cast<std::uint64_t>(k - 1) * (L - 1) + 1;
    if (q >= need) break;
    q = util::next_prime(need);
  }
  return q;
}

}  // namespace detail

std::uint64_t ImplicitFamily::membership_word(Station u, std::size_t from) const {
  const std::size_t end = from < length() ? std::min<std::size_t>(length() - from, 64) : 0;
  std::uint64_t word = 0;
  for (std::size_t j = 0; j < end; ++j) {
    if (contains(from + j, u)) word |= std::uint64_t{1} << j;
  }
  return word;
}

bool ImplicitFamily::hashed_window(std::size_t, std::size_t, std::uint64_t*,
                                   std::uint64_t*) const {
  return false;
}

SelectiveFamily ImplicitFamily::materialize() const {
  const std::uint32_t n = params_.n;
  std::vector<TransmissionSet> sets;
  sets.reserve(length_);
  for (std::size_t j = 0; j < length_; ++j) {
    util::DynamicBitset bits(n);
    for (Station u = 0; u < n; ++u) {
      if (contains(j, u)) bits.set(u);
    }
    sets.emplace_back(std::move(bits));
  }
  return SelectiveFamily(params_, std::move(sets), origin_);
}

namespace {

/// Mod-prime residue classes, evaluated as `u % p == r`.  Sets appear in
/// the builder's order: per prime p (ascending), residues r ascending with
/// empty residues skipped — which is exactly the tail r >= n when p > n, so
/// each prime contributes a run of min(p, n) sets and the within-run index
/// *is* the residue.
class ImplicitModPrime final : public ImplicitFamily {
 public:
  ImplicitModPrime(std::uint32_t n, std::uint32_t k)
      : ImplicitModPrime(n, detail::clamp_family_k(n, k),
                         detail::mod_prime_primes(n, detail::clamp_family_k(n, k))) {}

  bool contains(std::size_t set_index, Station u) const noexcept override {
    const std::size_t run = run_index(set_index);
    const std::uint64_t p = primes_[run];
    return u % p == set_index - offsets_[run];
  }

  std::uint64_t membership_word(Station u, std::size_t from) const override {
    if (from >= length()) return 0;
    const std::size_t end = std::min(length(), from + 64);
    std::uint64_t word = 0;
    std::size_t run = run_index(from);
    std::size_t j = from;
    while (j < end) {
      const std::uint64_t p = primes_[run];
      const std::size_t take_end = std::min(end, offsets_[run + 1]);
      // The one set of this prime's run containing u sits at residue u % p.
      const std::size_t target = offsets_[run] + static_cast<std::size_t>(u % p);
      if (target >= j && target < take_end) word |= std::uint64_t{1} << (target - from);
      j = take_end;
      ++run;
    }
    return word;
  }

 private:
  ImplicitModPrime(std::uint32_t n, std::uint32_t k, std::vector<std::uint64_t> primes)
      : ImplicitFamily(FamilyParams{n, k}, total_sets(n, primes), "mod_prime"),
        primes_(std::move(primes)) {
    offsets_.reserve(primes_.size() + 1);
    offsets_.push_back(0);
    for (std::uint64_t p : primes_) {
      offsets_.push_back(offsets_.back() +
                         static_cast<std::size_t>(std::min<std::uint64_t>(p, n)));
    }
  }

  static std::size_t total_sets(std::uint32_t n, const std::vector<std::uint64_t>& primes) {
    std::size_t total = 0;
    for (std::uint64_t p : primes) total += static_cast<std::size_t>(std::min<std::uint64_t>(p, n));
    return total;
  }

  [[nodiscard]] std::size_t run_index(std::size_t set_index) const noexcept {
    const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), set_index);
    return static_cast<std::size_t>(it - offsets_.begin()) - 1;
  }

  std::vector<std::uint64_t> primes_;
  std::vector<std::size_t> offsets_;  ///< prefix sums of min(p, n), size primes+1
};

/// Kautz–Singleton, evaluated as `f_u(a) == v` over GF(q).  Sets appear in
/// the builder's order: per evaluation point a (ascending), values v
/// ascending with empty value-sets skipped.  Every station u < min(q, n)
/// has f_u(a) = u at every point (its digit polynomial is the constant u),
/// so exactly the values 0..min(q,n)-1 are hit: each point contributes a
/// uniform run of spp = min(q, n) sets and the within-run index is v.
class ImplicitKautzSingleton final : public ImplicitFamily {
 public:
  ImplicitKautzSingleton(std::uint32_t n, std::uint32_t k)
      : ImplicitKautzSingleton(n, detail::clamp_family_k(n, k),
                               detail::kautz_singleton_q(n, detail::clamp_family_k(n, k))) {}

  bool contains(std::size_t set_index, Station u) const noexcept override {
    const std::uint64_t a = set_index / spp_;
    const std::uint64_t v = set_index % spp_;
    return detail::gf_poly_eval(u, q_, digits_, a) == v;
  }

  std::uint64_t membership_word(Station u, std::size_t from) const override {
    if (from >= length() || spp_ == 0) return 0;
    const std::size_t end = std::min(length(), from + 64);
    std::uint64_t word = 0;
    std::size_t j = from;
    while (j < end) {
      const std::uint64_t a = j / spp_;
      const std::size_t run_start = static_cast<std::size_t>(a * spp_);
      const std::size_t take_end = std::min(end, run_start + static_cast<std::size_t>(spp_));
      // One polynomial evaluation yields u's set within this point's run.
      const std::size_t target =
          run_start + static_cast<std::size_t>(detail::gf_poly_eval(u, q_, digits_, a));
      if (target >= j && target < take_end) word |= std::uint64_t{1} << (target - from);
      j = take_end;
    }
    return word;
  }

 private:
  ImplicitKautzSingleton(std::uint32_t n, std::uint32_t k, std::uint64_t q)
      : ImplicitFamily(FamilyParams{n, k},
                       static_cast<std::size_t>(q * std::min<std::uint64_t>(q, n)),
                       "kautz_singleton"),
        q_(q),
        digits_(detail::gf_digits_needed(n, q)),
        spp_(std::min<std::uint64_t>(q, n)) {}

  std::uint64_t q_;
  unsigned digits_;
  std::uint64_t spp_;  ///< sets per evaluation point: min(q, n)
};

/// Randomized family re-derived per coordinate from the counter RNG — the
/// same draws `build_randomized` makes, as a pure function of
/// (stream seed, set, station).
class ImplicitRandomized final : public ImplicitFamily {
 public:
  ImplicitRandomized(std::uint32_t n, std::uint32_t k, double c, std::uint64_t seed)
      : ImplicitRandomized(n, detail::clamp_family_k(n, k), c, seed, 0) {}

  bool contains(std::size_t set_index, Station u) const noexcept override {
    return detail::randomized_member(stream_state_, set_index, util::mix64(u), p_);
  }

  /// Set j's prefix is util::hash_combine(stream_state, mix64(j)), the
  /// bound util::bernoulli_threshold(1/k).  k = 1 (p = 1, every station in every
  /// set) has no 64-bit bound and keeps the per-station path.
  bool hashed_window(std::size_t from, std::size_t count, std::uint64_t* prefix,
                     std::uint64_t* bound) const override {
    if (p_ >= 1.0) return false;
    for (std::size_t i = 0; i < count; ++i) {
      prefix[i] = util::hash_combine(stream_state_, util::mix64(from + i));
      bound[i] = bound_;
    }
    return true;
  }

 private:
  ImplicitRandomized(std::uint32_t n, std::uint32_t k, double c, std::uint64_t seed, int)
      : ImplicitFamily(FamilyParams{n, k}, detail::randomized_length(n, k, c), "randomized"),
        stream_state_(util::hash_words({detail::randomized_stream_seed(seed, n, k)})),
        p_(1.0 / static_cast<double>(k)),
        bound_(p_ < 1.0 ? util::bernoulli_threshold(p_) : 0) {}

  std::uint64_t stream_state_;  ///< hash_words({stream seed})
  double p_;
  std::uint64_t bound_;  ///< bernoulli_threshold(p_) when p_ < 1
};

/// (n,2) bit splitter: set 0 is the universe; set 1 + 2b + side holds the
/// stations whose bit b equals side.
class ImplicitBitSplitter final : public ImplicitFamily {
 public:
  explicit ImplicitBitSplitter(std::uint32_t n)
      : ImplicitFamily(FamilyParams{n, 2},
                       1 + 2 * static_cast<std::size_t>(util::ceil_log2(n)), "bit_splitter") {}

  bool contains(std::size_t set_index, Station u) const noexcept override {
    if (set_index == 0) return true;  // universe set
    const unsigned b = static_cast<unsigned>((set_index - 1) / 2);
    const std::uint32_t side = static_cast<std::uint32_t>((set_index - 1) % 2);
    return ((u >> b) & 1u) == side;
  }
};

/// Eagerly materialized family behind the implicit interface (greedy, and
/// any caller-supplied family via wrap_materialized).
class MaterializedImplicit final : public ImplicitFamily {
 public:
  explicit MaterializedImplicit(SelectiveFamily family)
      : ImplicitFamily(family.params(), family.length(), family.origin()),
        family_(std::move(family)) {}

  bool contains(std::size_t set_index, Station u) const noexcept override {
    return family_.transmits(u, set_index);
  }

  SelectiveFamily materialize() const override { return family_; }

 private:
  SelectiveFamily family_;
};

}  // namespace

ImplicitFamilyPtr make_implicit_family(FamilyKind kind, std::uint32_t n, std::uint32_t k,
                                       std::uint64_t seed, double c) {
  switch (kind) {
    case FamilyKind::kBitSplitter:
      if (k <= 2) return std::make_shared<ImplicitBitSplitter>(n);
      // splitter cannot handle k > 2 — same fallback as build_family
      return std::make_shared<ImplicitRandomized>(n, k, c, seed);
    case FamilyKind::kModPrime:
      return std::make_shared<ImplicitModPrime>(n, k);
    case FamilyKind::kKautzSingleton:
      return std::make_shared<ImplicitKautzSingleton>(n, k);
    case FamilyKind::kGreedy:
      return wrap_materialized(build_greedy(n, k, seed));
    case FamilyKind::kRandomized:
      break;
  }
  return std::make_shared<ImplicitRandomized>(n, k, c, seed);
}

ImplicitFamilyPtr wrap_materialized(SelectiveFamily family) {
  return std::make_shared<MaterializedImplicit>(std::move(family));
}

}  // namespace wakeup::comb
