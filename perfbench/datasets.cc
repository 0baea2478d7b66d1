#include <cmath>
#include <filesystem>
#include <cstdio>
#include <cstdlib>

#include "graph/generators.h"
#include "graph/sampling.h"
#include "query/parser.h"
#include "workloads.h"

namespace perfbench {

std::unique_ptr<Dataset> MakeDataset(const GraphSpec& spec, uint64_t seed,
                                     int64_t sample_size,
                                     uint64_t sample_seed, Tracer& tracer) {
  auto ds = std::make_unique<Dataset>();
  ds->name = spec.name;
  ds->sample_size = sample_size;
  {
    Span span(tracer, "graph.generate");
    if (spec.kind == GraphKind::kCommunity) {
      const int scale = static_cast<int>(
          std::ceil(std::log2(static_cast<double>(spec.nodes))));
      ds->graph = std::make_unique<wcoj::Graph>(
          wcoj::Rmat(scale, spec.edges, 0.45, 0.2, 0.2, seed));
    } else {
      const int attach = static_cast<int>(spec.edges / spec.nodes);
      ds->graph = std::make_unique<wcoj::Graph>(
          wcoj::BarabasiAlbert(spec.nodes, attach, seed));
    }
  }
  Span span(tracer, "graph.relations");
  ds->db.Put("edge", ds->graph->EdgeRelationSymmetric());
  ds->db.Put("edge_lt", ds->graph->EdgeRelationOriented());
  ds->db.Put("node", ds->graph->NodeRelation());
  PutSamples(ds.get(), sample_seed);
  return ds;
}

void PutSamples(Dataset* ds, uint64_t sample_seed) {
  for (int i = 0; i < 4; ++i) {
    ds->db.Put("v" + std::to_string(i + 1),
               wcoj::SampleNodesExact(*ds->graph, ds->sample_size,
                                      MixSeed(sample_seed, i)));
  }
}

std::vector<Vec> SampleIndicators(const Dataset& ds, uint64_t sample_seed) {
  std::vector<Vec> out;
  for (int i = 0; i < 4; ++i) {
    const wcoj::Relation r = wcoj::SampleNodesExact(
        *ds.graph, ds.sample_size, MixSeed(sample_seed, i));
    std::vector<int64_t> nodes;
    for (size_t row = 0; row < r.size(); ++row) nodes.push_back(r.At(row, 0));
    out.push_back(ds.oracle->Indicator(nodes));
  }
  return out;
}

wcoj::BoundQuery BindShape(const Shape& shape, const Dataset& ds) {
  return wcoj::Bind(wcoj::MustParseQuery(shape.query_text), ds.db, shape.gao);
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

const char* ExecuteSpanName(const std::string& engine) {
  if (engine == "lftj") return "core.lftj.execute";
  if (engine == "hybrid") return "core.hybrid.execute";
  return "core.ms.execute";
}

void CountStats(Span& span, const wcoj::ExecResult& r) {
  const wcoj::EngineStats& s = r.stats;
  span.Count("tuples", static_cast<double>(r.count));
  span.Count("seeks", static_cast<double>(s.seeks));
  span.Count("constraints_inserted", static_cast<double>(s.constraints_inserted));
  span.Count("free_tuples", static_cast<double>(s.free_tuples));
  span.Count("gap_cache_hits", static_cast<double>(s.gap_cache_hits));
  span.Count("index_builds", static_cast<double>(s.index_builds));
  span.Count("index_cache_hits", static_cast<double>(s.index_cache_hits));
  span.Count("cds_nodes_allocated", static_cast<double>(s.cds_nodes_allocated));
  span.Count("cds_nodes_recycled", static_cast<double>(s.cds_nodes_recycled));
  span.Count("cds_peak_arena_bytes",
             static_cast<double>(s.cds_peak_arena_bytes));
}

}  // namespace perfbench
