#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {
uint64_t Dot(const Vec& a, const Vec& b) {
  uint64_t s = 0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}
Vec Hadamard(const Vec& a, const Vec& b) {
  Vec out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
  return out;
}
}  // namespace

Adjacency::Adjacency(int64_t num_nodes,
                     const std::vector<std::pair<int64_t, int64_t>>& edges)
    : n_(num_nodes), off_(num_nodes + 1, 0), up_(num_nodes, 0) {
  std::vector<std::pair<int64_t, int64_t>> arcs;
  arcs.reserve(edges.size() * 2);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    arcs.emplace_back(u, v);
    arcs.emplace_back(v, u);
  }
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  nbr_.reserve(arcs.size());
  for (const auto& [u, v] : arcs) {
    ++off_[u + 1];
    nbr_.push_back(v);
  }
  for (int64_t v = 0; v < n_; ++v) off_[v + 1] += off_[v];
  for (int64_t v = 0; v < n_; ++v) {
    up_[v] = std::upper_bound(nbr_.begin() + off_[v], nbr_.begin() + off_[v + 1],
                              v) -
             nbr_.begin();
  }
}

Vec Adjacency::Mul(const Vec& x) const {
  Vec y(n_, 0);
  for (int64_t u = 0; u < n_; ++u) {
    uint64_t s = 0;
    for (int64_t i = off_[u]; i < off_[u + 1]; ++i) s += x[nbr_[i]];
    y[u] = s;
  }
  return y;
}

Vec Adjacency::Indicator(const std::vector<int64_t>& nodes) const {
  Vec x(n_, 0);
  for (int64_t v : nodes) {
    if (v < 0 || v >= n_) {
      std::fprintf(stderr, "oracle: sample node %lld out of range\n",
                   static_cast<long long>(v));
      std::abort();
    }
    x[v] = 1;
  }
  return x;
}

uint64_t Adjacency::Triangles() const {
  std::vector<char> mark(n_, 0);
  uint64_t count = 0;
  for (int64_t u = 0; u < n_; ++u) {
    for (const int64_t* p = UpBegin(u); p != UpEnd(u); ++p) mark[*p] = 1;
    for (const int64_t* v = UpBegin(u); v != UpEnd(u); ++v) {
      for (const int64_t* w = UpBegin(*v); w != UpEnd(*v); ++w) count += mark[*w];
    }
    for (const int64_t* p = UpBegin(u); p != UpEnd(u); ++p) mark[*p] = 0;
  }
  return count;
}

Vec Adjacency::TrianglesPerNode() const {
  std::vector<char> mark(n_, 0);
  Vec per(n_, 0);
  for (int64_t u = 0; u < n_; ++u) {
    for (const int64_t* p = UpBegin(u); p != UpEnd(u); ++p) mark[*p] = 1;
    for (const int64_t* v = UpBegin(u); v != UpEnd(u); ++v) {
      for (const int64_t* w = UpBegin(*v); w != UpEnd(*v); ++w) {
        if (mark[*w]) {
          ++per[u];
          ++per[*v];
          ++per[*w];
        }
      }
    }
    for (const int64_t* p = UpBegin(u); p != UpEnd(u); ++p) mark[*p] = 0;
  }
  return per;
}

uint64_t Adjacency::FourCliques() const {
  std::vector<char> mark(n_, 0);
  std::vector<int64_t> common;
  uint64_t count = 0;
  for (int64_t a = 0; a < n_; ++a) {
    for (const int64_t* p = UpBegin(a); p != UpEnd(a); ++p) mark[*p] = 1;
    for (const int64_t* b = UpBegin(a); b != UpEnd(a); ++b) {
      // c ranges over N+(a) & N+(b); d over N+(a) & N+(b) & N+(c).
      common.clear();
      for (const int64_t* c = UpBegin(*b); c != UpEnd(*b); ++c) {
        if (mark[*c]) common.push_back(*c);
      }
      for (int64_t c : common) mark[c] = 2;
      for (int64_t c : common) {
        for (const int64_t* d = UpBegin(c); d != UpEnd(c); ++d) {
          count += mark[*d] == 2;
        }
      }
      for (int64_t c : common) mark[c] = 1;
    }
    for (const int64_t* p = UpBegin(a); p != UpEnd(a); ++p) mark[*p] = 0;
  }
  return count;
}

uint64_t Adjacency::FourCycles() const {
  std::vector<char> mark(n_, 0);
  std::vector<uint64_t> via_b(n_, 0);
  std::vector<int64_t> touched;
  uint64_t count = 0;
  for (int64_t a = 0; a < n_; ++a) {
    // via_b[c] = #{b : a < b < c, ab and bc edges}
    touched.clear();
    for (const int64_t* b = UpBegin(a); b != UpEnd(a); ++b) {
      for (const int64_t* c = UpBegin(*b); c != UpEnd(*b); ++c) {
        if (via_b[*c]++ == 0) touched.push_back(*c);
      }
    }
    // times #{d > c : cd and ad edges}
    for (const int64_t* p = UpBegin(a); p != UpEnd(a); ++p) mark[*p] = 1;
    for (int64_t c : touched) {
      uint64_t via_d = 0;
      for (const int64_t* d = UpBegin(c); d != UpEnd(c); ++d) via_d += mark[*d];
      count += via_b[c] * via_d;
      via_b[c] = 0;
    }
    for (const int64_t* p = UpBegin(a); p != UpEnd(a); ++p) mark[*p] = 0;
  }
  return count;
}

uint64_t OracleCount(const std::string& shape, const Adjacency& adj,
                     const std::vector<Vec>& s, const Vec* tri_per_node) {
  if (shape == "3-clique") return adj.Triangles();
  if (shape == "4-clique") return adj.FourCliques();
  if (shape == "4-cycle") return adj.FourCycles();
  if (shape == "3-path") return Dot(s[0], adj.Mul(adj.Mul(adj.Mul(s[1]))));
  if (shape == "4-path") {
    return Dot(s[0], adj.Mul(adj.Mul(adj.Mul(adj.Mul(s[1])))));
  }
  if (shape == "1-tree") return Dot(adj.Mul(s[0]), adj.Mul(s[1]));
  if (shape == "2-comb") return Dot(adj.Mul(s[0]), adj.Mul(adj.Mul(s[1])));
  if (shape == "2-tree") {
    const Vec x = Hadamard(adj.Mul(s[0]), adj.Mul(s[1]));
    const Vec y = Hadamard(adj.Mul(s[2]), adj.Mul(s[3]));
    return Dot(adj.Mul(x), adj.Mul(y));
  }
  if (shape == "2-lollipop" && tri_per_node != nullptr) {
    const Vec walks = adj.Mul(adj.Mul(s[0]));
    uint64_t count = 0;
    for (size_t c = 0; c < walks.size(); ++c) {
      count += walks[c] * 2 * (*tri_per_node)[c];
    }
    return count;
  }
  std::fprintf(stderr, "oracle: no closed form for %s\n", shape.c_str());
  std::abort();
}

}  // namespace perfbench
