#include "genomics/kmer.hpp"

#include "util/assert.hpp"

namespace impact::genomics {

std::uint64_t hash64(std::uint64_t key) {
  // minimap2's invertible hash (Thomas Wang mix).
  key = (~key + (key << 21));
  key = key ^ (key >> 24);
  key = ((key + (key << 3)) + (key << 8));
  key = key ^ (key >> 14);
  key = ((key + (key << 2)) + (key << 4));
  key = key ^ (key >> 28);
  key = (key + (key << 31));
  return key;
}

Kmer pack_kmer(const std::vector<Base>& seq, std::size_t pos,
               std::uint32_t k) {
  util::check(k >= 1 && k <= 31, "pack_kmer: k must be in [1,31]");
  util::check(pos + k <= seq.size(), "pack_kmer: out of range");
  Kmer kmer = 0;
  for (std::uint32_t i = 0; i < k; ++i) {
    kmer = (kmer << 2) | seq[pos + i];
  }
  return kmer;
}

Kmer revcomp_kmer(Kmer kmer, std::uint32_t k) {
  Kmer rc = 0;
  for (std::uint32_t i = 0; i < k; ++i) {
    rc = (rc << 2) | (3ull - (kmer & 3ull));  // Complement (A<->T, C<->G).
    kmer >>= 2;
  }
  return rc;
}

Kmer canonical_kmer(Kmer kmer, std::uint32_t k) {
  const Kmer rc = revcomp_kmer(kmer, k);
  return kmer < rc ? kmer : rc;
}

void MinimizerConfig::validate() const {
  util::check(k >= 1 && k <= 31, "MinimizerConfig: k must be in [1,31]");
  util::check(w >= 1, "MinimizerConfig: w must be >= 1");
}

std::vector<Minimizer> extract_minimizers(const std::vector<Base>& seq,
                                          const MinimizerConfig& config) {
  config.validate();
  const std::uint32_t k = config.k;
  const std::uint32_t w = config.w;
  std::vector<Minimizer> out;
  if (seq.size() < k) return out;
  const std::size_t n_kmers = seq.size() - k + 1;
  // A random sequence selects about 2/(w+1) of its k-mers.
  out.reserve(2 * n_kmers / (w + 1) + 1);

  // One pass: the forward and reverse-complement k-mers roll one base at a
  // time (the new base's complement enters rev at the top), and the window
  // minimum is kept over a ring of the last w hashes, rescanned only when
  // the minimum itself slides out. The smallest hash wins; among equal
  // hashes the latest position wins.
  const Kmer mask = (1ull << (2 * k)) - 1;
  const unsigned top = 2 * (k - 1);
  Kmer fwd = 0;
  Kmer rev = 0;
  for (std::size_t i = 0; i < k - 1; ++i) {
    fwd = ((fwd << 2) | seq[i]) & mask;
    rev = (rev >> 2) | ((3ull - seq[i]) << top);
  }
  std::vector<std::uint64_t> ring(w);  // Position i's hash is ring[slot].
  std::size_t slot = 0;
  Minimizer best{~0ull, 0};
  for (std::size_t i = 0; i < n_kmers; ++i) {
    const Base c = seq[i + k - 1];
    fwd = ((fwd << 2) | c) & mask;
    rev = (rev >> 2) | ((3ull - c) << top);
    const std::uint64_t h = hash64(fwd < rev ? fwd : rev);
    ring[slot] = h;
    if (h <= best.hash) {
      best = {h, static_cast<std::uint32_t>(i)};
    } else if (best.position + w <= i) {
      // The minimum left the window: rescan positions i-w+1 .. i, oldest
      // first, which sit in the slots after `slot`, wrapping round.
      best = {~0ull, 0};
      std::size_t s = slot;
      for (std::size_t j = i + 1 - w; j <= i; ++j) {
        s = s + 1 == w ? 0 : s + 1;
        if (ring[s] <= best.hash) {
          best = {ring[s], static_cast<std::uint32_t>(j)};
        }
      }
    }
    slot = slot + 1 == w ? 0 : slot + 1;
    if (i + 1 >= w && (out.empty() || !(out.back() == best))) {
      out.push_back(best);
    }
  }
  return out;
}

}  // namespace impact::genomics
