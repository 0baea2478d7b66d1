#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// Independent answers for the benchmark's queries, computed without any
// trie, catalog, or engine code: plain sorted adjacency sets built from
// the graph's edge list.
//
//  * Cliques and the 4-cycle: direct enumeration over the neighbours
//    above each node (the oriented `edge_lt` relation's semantics).
//  * Paths, trees, combs and the 2-lollipop: closed-form adjacency-
//    vector products over the symmetric `edge` relation, e.g.
//    3-path = v1' A^3 v2 and 2-lollipop = sum_c (A^2 v1)[c] * (A^3)[c,c].
//
// Counts wrap modulo 2^64 exactly as the engines' uint64 counters do.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Vec = std::vector<uint64_t>;

class Adjacency {
 public:
  // `edges` are undirected pairs over nodes [0, num_nodes); loops and
  // duplicates are dropped.
  Adjacency(int64_t num_nodes,
            const std::vector<std::pair<int64_t, int64_t>>& edges);

  int64_t num_nodes() const { return n_; }
  // y = A x over the symmetric adjacency.
  Vec Mul(const Vec& x) const;
  // Indicator vector of a node sample.
  Vec Indicator(const std::vector<int64_t>& nodes) const;

  uint64_t Triangles() const;
  uint64_t FourCliques() const;
  uint64_t FourCycles() const;  // a<b<c<d with edges ab, bc, cd, ad
  // (A^3)[c,c] / 2: the triangles through each node.
  Vec TrianglesPerNode() const;

 private:
  // Neighbours of v above v: [up_[v], off_[v + 1]) in nbr_.
  const int64_t* UpBegin(int64_t v) const { return nbr_.data() + up_[v]; }
  const int64_t* UpEnd(int64_t v) const { return nbr_.data() + off_[v + 1]; }

  int64_t n_;
  std::vector<int64_t> off_, up_, nbr_;
};

// Count of `shape` ("3-clique", "4-clique", "4-cycle", "3-path",
// "4-path", "1-tree", "2-comb", "2-tree", "2-lollipop") given the
// indicator vectors of the samples v1..v4 (unused ones may be empty).
// `tri_per_node` is required for "2-lollipop".
uint64_t OracleCount(const std::string& shape, const Adjacency& adj,
                     const std::vector<Vec>& samples,
                     const Vec* tri_per_node = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
