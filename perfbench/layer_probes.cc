// Per-layer metrics of a traced run.
//
// A metric comes from the workload's own traced timed phase when the
// workload calls that layer there (e.g. core.ms.execute_s on
// minesweeper_resample). Every other metric is measured by a probe that
// calls the layer's public functions directly on the workload's own data
// after the timed phase (e.g. core.ms.execute_s on cyclic_lftj is ms on
// the 2-comb shape over the workload's R-MAT graph). README.md lists
// which source each workload uses.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <random>
#include <set>

#include "core/atom_index.h"
#include "parallel/partitioned_run.h"
#include "parallel/worker_pool.h"
#include "query/agm.h"
#include "query/parser.h"
#include "server/admission.h"
#include "server/prepared_cache.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/trie.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kPasses = 3;  // probes report the median of this many passes
constexpr int kThreads = 2;
constexpr const char* kProbeShape = "2-comb";
const char* const kNames[] = {"edge", "edge_lt", "node", "v1", "v2", "v3", "v4"};

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* const kMetrics =
      new std::vector<std::pair<std::string, std::string>>{
          {"graph.generate_s", "s"},
          {"graph.relations_s", "s"},
          {"graph.resample_s", "s"},
          {"storage.index_build_s", "s"},
          {"storage.index_builds", "count"},
          {"storage.index_key_mb", "MB"},
          {"storage.catalog_save_s", "s"},
          {"storage.catalog_open_s", "s"},
          {"storage.catalog_file_mb", "MB"},
          {"storage.seek_ns", "ns"},
          {"storage.seeks", "count"},
          {"storage.seeks_per_tuple", "ratio"},
          {"storage.seekgap_ns", "ns"},
          {"query.parse_us", "us"},
          {"query.bind_us", "us"},
          {"query.agm_us", "us"},
          {"core.lftj.execute_s", "s"},
          {"core.ms.execute_s", "s"},
          {"core.hybrid.execute_s", "s"},
          {"core.hybrid.peak_heap_mb", "MB"},
          {"core.cds.constraints_inserted", "count"},
          {"core.cds.free_tuples_per_tuple", "ratio"},
          {"core.cds.gap_hit_ratio", "ratio"},
          {"core.cds.nodes_allocated", "count"},
          {"core.cds.peak_arena_mb", "MB"},
          {"parallel.prewarm_s", "s"},
          {"parallel.speedup", "ratio"},
          {"parallel.cds_nodes_recycled", "count"},
          {"server.roundtrip_overhead_ms", "ms"},
          {"server.protocol_us", "us"},
          {"server.prepare_hit_us", "us"},
          {"server.prepare_miss_us", "us"},
          {"server.admit_us", "us"},
          {"server.cache_hit_ratio", "ratio"},
          {"server.execute_ms", "ms"},
          {"trace.queries_per_s", "1/s"},
      };
  return *kMetrics;
}

// Median over kPasses of fn()'s seconds.
template <typename Fn>
double MedianSeconds(Fn fn) {
  std::vector<double> s;
  for (int i = 0; i < kPasses; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    s.push_back(SecondsSince(t0));
  }
  return Median(s);
}

// A fresh Database holding copies of `ds`'s relations, no indexes.
std::unique_ptr<wcoj::Database> CopyRelations(const Dataset& ds) {
  auto db = std::make_unique<wcoj::Database>();
  for (const char* name : kNames) db->Put(name, *ds.db.Find(name));
  return db;
}

struct IndexKey {
  const wcoj::Relation* rel;
  std::vector<int> perm;
  bool operator<(const IndexKey& o) const {
    return rel != o.rel ? std::less<const wcoj::Relation*>{}(rel, o.rel)
                        : perm < o.perm;
  }
};

std::set<IndexKey> DistinctIndexes(const LayerContext& ctx) {
  std::set<IndexKey> keys;
  for (const wcoj::BoundQuery* q : ctx.queries) {
    for (const wcoj::BoundAtom& atom : q->atoms) {
      keys.insert({atom.relation, wcoj::GaoConsistentPerm(atom.vars)});
    }
  }
  return keys;
}

void ProbeStorage(const LayerContext& ctx, LayerValues* values) {
  Tracer& tracer = *ctx.tracer;
  const std::set<IndexKey> keys = DistinctIndexes(ctx);
  {
    // Encoded key bytes of the workload's indexes as its catalog holds
    // them. PayloadBytes equals LevelKeyBytes for heap-built levels and
    // also sizes the mmap-backed ones (served_mix), where LevelKeyBytes
    // reports 0 because the file mapping owns the bytes.
    std::set<const wcoj::TrieIndex*> seen;
    double bytes = 0.0;
    for (const wcoj::BoundQuery* q : ctx.queries) {
      for (const wcoj::BoundAtom& atom : q->atoms) {
        const wcoj::TrieIndex* index = q->catalog->GetOrBuild(
            *atom.relation, wcoj::GaoConsistentPerm(atom.vars));
        if (index == nullptr || !seen.insert(index).second) continue;
        for (int d = 0; d < index->arity(); ++d) {
          bytes += static_cast<double>(index->Keys(d).PayloadBytes());
        }
      }
    }
    (*values)["storage.index_key_mb"] = bytes / kMiB;
  }
  if (values->count("storage.catalog_save_s") == 0) {
    Span span(tracer, "probe.catalog");
    double save_s = 0.0, open_s = 0.0, file_bytes = 0.0;
    for (Dataset* ds : ctx.datasets) {
      const std::string dir = ctx.options->out_dir + "/probe-catalog-" +
                              std::to_string(::getpid()) + "-" + ds->name;
      std::filesystem::remove_all(dir);
      Clock::time_point t0 = Clock::now();
      ds->db.SaveCatalog(dir);
      save_s += SecondsSince(t0);
      file_bytes += static_cast<double>(DirectoryBytes(dir));
      const std::unique_ptr<wcoj::Database> db = CopyRelations(*ds);
      t0 = Clock::now();
      db->LoadCatalog(dir);
      open_s += SecondsSince(t0);
      std::filesystem::remove_all(dir);
    }
    (*values)["storage.catalog_save_s"] = save_s;
    (*values)["storage.catalog_open_s"] = open_s;
    (*values)["storage.catalog_file_mb"] = file_bytes / kMiB;
  }
  {
    Span span(tracer, "probe.index_build");
    (*values)["storage.index_build_s"] = MedianSeconds([&] {
      for (const IndexKey& key : keys) wcoj::TrieIndex index(*key.rel, key.perm);
    });
  }
  // Seek and SeekGap over a seeded probe stream on the workload's own
  // edge index.
  const wcoj::Relation* rel = ctx.probe->db.Find(ctx.seek_relation);
  const wcoj::TrieIndex* index = ctx.probe->db.catalog()->GetOrBuild(*rel, {0, 1});
  std::mt19937_64 rng(MixSeed(ctx.options->seed, 31));
  const int64_t n = ctx.probe->graph->num_nodes();
  std::vector<std::pair<int64_t, int64_t>> probes(200000);
  for (auto& p : probes) {
    p = {static_cast<int64_t>(rng() % n), static_cast<int64_t>(rng() % n)};
  }
  {
    Span span(tracer, "probe.seek");
    std::vector<std::pair<int64_t, int64_t>> sorted = probes;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> ns;
    for (int pass = 0; pass < kPasses; ++pass) {
      wcoj::TrieIterator it(index);
      it.Open();
      const Clock::time_point t0 = Clock::now();
      for (const auto& [a, b] : sorted) {
        it.Seek(a);
        if (it.AtEnd()) break;
        it.Open();
        it.Seek(b);
        it.Up();
      }
      ns.push_back(SecondsSince(t0) * 1e9 / static_cast<double>(it.seeks()));
    }
    (*values)["storage.seek_ns"] = Median(ns);
  }
  {
    Span span(tracer, "probe.seekgap");
    volatile uint64_t found = 0;
    wcoj::Tuple t(2);
    const double s = MedianSeconds([&] {
      for (const auto& [a, b] : probes) {
        t[0] = a;
        t[1] = b;
        found = found + index->SeekGap(t).found;
      }
    });
    (*values)["storage.seekgap_ns"] = s * 1e9 / static_cast<double>(probes.size());
  }
}

void ProbeQuery(const LayerContext& ctx, LayerValues* values) {
  Span span(*ctx.tracer, "probe.query");
  constexpr int kCalls = 300;
  std::vector<double> parse_us, bind_us, agm_us;
  for (const Shape* shape : ctx.shapes) {
    for (int i = 0; i < kCalls; ++i) {
      Clock::time_point t0 = Clock::now();
      const wcoj::ParseResult parsed = wcoj::ParseQuery(shape->query_text);
      parse_us.push_back(SecondsSince(t0) * 1e6);
      t0 = Clock::now();
      const wcoj::BoundQuery q = wcoj::Bind(parsed.query, ctx.probe->db, shape->gao);
      bind_us.push_back(SecondsSince(t0) * 1e6);
      t0 = Clock::now();
      const wcoj::AgmResult agm = wcoj::AgmBound(q);
      agm_us.push_back(SecondsSince(t0) * 1e6);
      if (!agm.ok) std::fprintf(stderr, "AGM bound failed for %s\n", shape->name.c_str());
    }
  }
  (*values)["query.parse_us"] = Median(parse_us);
  (*values)["query.bind_us"] = Median(bind_us);
  (*values)["query.agm_us"] = Median(agm_us);
}

void ProbeServerParts(const LayerContext& ctx, LayerValues* values) {
  Span span(*ctx.tracer, "probe.server_parts");
  constexpr int kCalls = 2000;
  {
    wcoj::ServerRequest req;
    req.engine = "lftj";
    req.text = ctx.shapes[0]->query_text;
    uint64_t parsed_ok = 0;
    const double s = MedianSeconds([&] {
      for (int i = 0; i < kCalls; ++i) {
        wcoj::ServerRequest in;
        std::string error;
        parsed_ok += wcoj::ParseRequestLine(wcoj::FormatRequestLine(req), &in, &error);
        wcoj::ServerReply reply;
        parsed_ok += wcoj::ParseReplyLine(
            wcoj::FormatOkReply(static_cast<uint64_t>(i), 0.001, true, "cheap", 42),
            &reply);
      }
    });
    (*values)["server.protocol_us"] = s * 1e6 / kCalls;
    if (parsed_ok == 0) std::fprintf(stderr, "protocol probe parsed nothing\n");
  }
  {
    wcoj::PreparedQueryCache cache(ctx.probe->db.Map(), ctx.probe->db.catalog(),
                                   20.0, 1 << 16);
    std::vector<double> hit_us, miss_us;
    uint64_t fresh = 1;
    for (const Shape* shape : ctx.shapes) {
      for (int i = 0; i < 100; ++i) {
        wcoj::Status status;
        bool hit = false;
        Clock::time_point t0 = Clock::now();
        cache.Get("lftj", FreshText(shape->query_text, fresh++), &status, &hit);
        miss_us.push_back(SecondsSince(t0) * 1e6);
        t0 = Clock::now();
        cache.Get("lftj", shape->query_text, &status, &hit);
        hit_us.push_back(SecondsSince(t0) * 1e6);
      }
    }
    (*values)["server.prepare_hit_us"] = Median(hit_us);
    (*values)["server.prepare_miss_us"] = Median(miss_us);
  }
  {
    wcoj::AdmissionController admission({kThreads, 16, 25});
    const double s = MedianSeconds([&] {
      for (int i = 0; i < kCalls * 10; ++i) {
        const wcoj::AdmitResult a = admission.Admit(
            wcoj::QueryClass::kCheap, wcoj::Deadline::Infinite(), nullptr);
        if (a.outcome == wcoj::AdmitOutcome::kAdmitted) admission.Release(a.slot);
      }
    });
    (*values)["server.admit_us"] = s * 1e6 / (kCalls * 10);
  }
}

// Serial executions of `engine` on the probe shape; returns the count.
// For the hybrid also the heap's growth during the call.
uint64_t ProbeEngine(const LayerContext& ctx, const std::string& engine_name,
                     const wcoj::BoundQuery& q, LayerValues* values) {
  const std::unique_ptr<wcoj::Engine> engine = wcoj::CreateEngine(engine_name);
  std::vector<double> seconds, heap_mb;
  uint64_t count = 0;
  for (int i = 0; i < kPasses; ++i) {
    wcoj::ExecScratch scratch;
    wcoj::ExecOptions exec;
    exec.scratch = &scratch;
    const Clock::time_point t0 = Clock::now();
    Span span(*ctx.tracer, ExecuteSpanName(engine_name));
    const int64_t heap_base = ResetHeapPeak();
    const wcoj::ExecResult r = engine->Execute(q, exec);
    heap_mb.push_back(static_cast<double>(HeapPeakBytes() - heap_base) / kMiB);
    CountStats(span, r);
    seconds.push_back(SecondsSince(t0));
    count = r.count;
  }
  values->emplace(std::string(ExecuteSpanName(engine_name)) + "_s",
                  Median(seconds));
  if (engine_name == "hybrid") {
    values->emplace("core.hybrid.peak_heap_mb", Median(heap_mb));
  }
  return count;
}

void ProbeEngines(const LayerContext& ctx, LayerValues* values,
                  Checker* checker) {
  const Shape& shape = ShapeByName(kProbeShape);
  const wcoj::BoundQuery q = BindShape(shape, *ctx.probe);
  wcoj::WarmQueryIndexes(q);
  const uint64_t want = ProbeEngine(ctx, "lftj", q, values);
  if (values->count("core.ms.execute_s") == 0 ||
      values->count("core.cds.constraints_inserted") == 0) {
    Span span(*ctx.tracer, "probe.cds");
    checker->Expect("probe ms vs lftj", ProbeEngine(ctx, "ms", q, values), want);
    CdsLayerValues(*ctx.tracer, "probe.cds", values);
  }
  if (values->count("core.hybrid.execute_s") == 0) {
    checker->Expect("probe hybrid vs lftj", ProbeEngine(ctx, "hybrid", q, values),
                    want);
  }
  if (values->count("parallel.speedup") == 0) {
    Span span(*ctx.tracer, "probe.parallel");
    const std::unique_ptr<wcoj::Engine> ms = wcoj::CreateEngine("ms");
    wcoj::WorkerPool pool(kThreads);
    wcoj::ExecScratchPool scratch;
    scratch.Reserve(kThreads);
    std::vector<double> serial, partitioned, recycled;
    for (int i = 0; i < kPasses; ++i) {
      wcoj::ExecScratch serial_scratch;
      wcoj::ExecOptions exec;
      exec.scratch = &serial_scratch;
      Clock::time_point t0 = Clock::now();
      const wcoj::ExecResult s = ms->Execute(q, exec);
      serial.push_back(SecondsSince(t0));
      t0 = Clock::now();
      const wcoj::ExecResult p = wcoj::PartitionedExecute(
          *ms, q, wcoj::ExecOptions{}, kThreads, 4, &scratch, &pool);
      partitioned.push_back(SecondsSince(t0));
      recycled.push_back(static_cast<double>(p.stats.cds_nodes_recycled));
      checker->Expect("probe ms serial vs 2-worker", p.count, s.count);
    }
    (*values)["parallel.speedup"] = Median(serial) / Median(partitioned);
    (*values)["parallel.cds_nodes_recycled"] = Median(recycled);
  }
  if (values->count("parallel.prewarm_s") == 0) {
    Span span(*ctx.tracer, "probe.prewarm");
    std::vector<double> seconds;
    for (int i = 0; i < kPasses; ++i) {
      const std::unique_ptr<wcoj::Database> db = CopyRelations(*ctx.probe);
      std::vector<wcoj::BoundQuery> queries;
      for (const Shape* s : ctx.shapes) {
        queries.push_back(wcoj::Bind(wcoj::MustParseQuery(s->query_text), *db, s->gao));
      }
      const Clock::time_point t0 = Clock::now();
      for (const wcoj::BoundQuery& bq : queries) {
        wcoj::WarmQueryIndexesParallel(bq, kThreads);
      }
      seconds.push_back(SecondsSince(t0));
    }
    (*values)["parallel.prewarm_s"] = Median(seconds);
  }
}

// A one-slot server over the probe dataset's heap catalog: cheap LFTJ
// lookups, one in ten a never-seen text.
void ProbeServer(const LayerContext& ctx, LayerValues* values,
                 Checker* checker) {
  Span span(*ctx.tracer, "probe.server");
  const Shape& shape = ShapeByName(kProbeShape);
  wcoj::ServerConfig config;
  config.max_concurrency = 1;
  wcoj::Server server(ctx.probe->db.Map(), ctx.probe->db.catalog(), config);
  Client client;
  if (!server.Start().ok() || !client.Connect(server.port())) {
    checker->ExpectTrue("probe server start", false);
    return;
  }
  std::vector<double> overhead_ms, execute_ms;
  std::set<uint64_t> counts;
  for (int i = 0; i < 60; ++i) {
    const uint64_t fresh = i % 10 == 9 ? static_cast<uint64_t>(i) : 0;
    std::string line;
    const Clock::time_point t0 = Clock::now();
    const bool io = client.Call("Q lftj 0 0 " + FreshText(shape.query_text, fresh), &line);
    const double ms = SecondsSince(t0) * 1e3;
    wcoj::ServerReply reply;
    if (!io || !wcoj::ParseReplyLine(line, &reply) || !reply.ok) {
      checker->ExpectTrue("probe server reply: " + line, false);
      continue;
    }
    overhead_ms.push_back(ms - reply.seconds * 1e3);
    execute_ms.push_back(reply.seconds * 1e3);
    counts.insert(reply.count);
  }
  checker->Expect("probe server distinct answers", counts.size(), 1);
  std::string line;
  std::map<std::string, uint64_t> stats;
  checker->ExpectTrue("probe server STATS",
                      client.Call("STATS", &line) && ParseStatsReply(line, &stats));
  client.Call("QUIT", &line);
  server.Drain();
  (*values)["server.roundtrip_overhead_ms"] = Median(overhead_ms);
  (*values)["server.execute_ms"] = Quantile(execute_ms, 0.9);
  (*values)["server.cache_hit_ratio"] =
      static_cast<double>(stats["cache_hits"]) /
      static_cast<double>(std::max<uint64_t>(1, stats["cache_hits"] + stats["cache_misses"]));
}

}  // namespace

void CommonLayerValues(const Tracer& tracer, const TimedPhase& phase,
                       LayerValues* values) {
  (*values)["graph.generate_s"] = Sum(tracer.Durations("graph.generate"));
  (*values)["graph.relations_s"] = Sum(tracer.Durations("graph.relations"));
  (*values)["storage.index_builds"] =
      Sum(tracer.CountUnder("index_builds", "setup")) +
      Median(tracer.CountUnder("index_builds", "round"));
  (*values)["storage.seeks"] = Median(tracer.CountUnder("seeks", "round"));
  (*values)["storage.seeks_per_tuple"] =
      Sum(tracer.CountUnder("seeks", "round")) /
      std::max(1.0, Sum(tracer.CountUnder("tuples", "round")));
  (*values)["trace.queries_per_s"] =
      static_cast<double>(phase.answered) / phase.timed_s;
}

void CdsLayerValues(const Tracer& tracer, const std::string& ancestor,
                    LayerValues* values) {
  const double tuples = Sum(tracer.CountUnder("tuples", ancestor));
  const double free_tuples = Sum(tracer.CountUnder("free_tuples", ancestor));
  const double hits = Sum(tracer.CountUnder("gap_cache_hits", ancestor));
  const double seeks = Sum(tracer.CountUnder("seeks", ancestor));
  (*values)["core.cds.constraints_inserted"] =
      Median(tracer.CountUnder("constraints_inserted", ancestor));
  (*values)["core.cds.free_tuples_per_tuple"] = free_tuples / std::max(1.0, tuples);
  (*values)["core.cds.gap_hit_ratio"] = hits / std::max(1.0, hits + seeks);
  (*values)["core.cds.nodes_allocated"] =
      Median(tracer.CountUnder("cds_nodes_allocated", ancestor));
  (*values)["core.cds.peak_arena_mb"] =
      tracer.CountMax("cds_peak_arena_bytes") / kMiB;
}

void ProbeMissingLayers(const LayerContext& ctx, LayerValues* values,
                        Checker* checker) {
  Span span(*ctx.tracer, "probe");
  ProbeStorage(ctx, values);
  ProbeQuery(ctx, values);
  ProbeServerParts(ctx, values);
  ProbeEngines(ctx, values, checker);
  if (values->count("server.roundtrip_overhead_ms") == 0) {
    ProbeServer(ctx, values, checker);
  }
  if (values->count("graph.resample_s") == 0) {
    // Last: it replaces the probe dataset's samples.
    Span resample(*ctx.tracer, "probe.resample");
    std::vector<double> seconds;
    for (int i = 0; i < kPasses; ++i) {
      const Clock::time_point t0 = Clock::now();
      PutSamples(ctx.probe, MixSeed(ctx.options->seed, 5000 + i));
      seconds.push_back(SecondsSince(t0));
    }
    (*values)["graph.resample_s"] = Median(seconds);
  }
}

bool AddPerLayer(const LayerValues& values, RunResult* result) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    const auto it = values.find(name);
    if (it == values.end()) {
      std::fprintf(stderr, "per-layer metric %s was not measured\n", name.c_str());
      return false;
    }
    result->Add(name, it->second, unit);
  }
  return true;
}

}  // namespace perfbench
