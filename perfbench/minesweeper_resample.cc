// minesweeper_resample: Minesweeper (ms), counting Minesweeper (#ms)
// and the hybrid on the Table 7 acyclic shapes, the hybrid on the
// 2-lollipop and ms on the 3-clique, all through the morsel scheduler on
// a persistent 2-worker pool. Every round redraws the v1..v4 node
// samples: the storage build path, the catalog invalidation and the
// parallel pre-warm run each round, beside reads of the resident edge
// indexes, and the CDS does most of the work.

#include <algorithm>
#include <cstdio>

#include "core/atom_index.h"
#include "parallel/partitioned_run.h"
#include "parallel/worker_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

// A power-law mirror large enough that its resident data outweighs the
// hybrid's per-round prefix buffers (whose size swings with whether a
// round's samples hit a hub), and whose hubs are milder than R-MAT's.
const GraphSpec kPowerLaw{"powerlaw", GraphKind::kPowerLaw, 16384, 98304};
constexpr int64_t kSampleSize = 6;
constexpr int kThreads = 2;
constexpr int kGranularity = 4;
constexpr double kDeadlineSeconds = 30.0;

struct Cell {
  std::string name;
  std::string engine_name;
  const Shape* shape = nullptr;
  const wcoj::BoundQuery* bound = nullptr;
  const wcoj::Engine* engine = nullptr;
  std::vector<uint64_t> counts;  // per round; kFailed when not answered
};

constexpr uint64_t kFailed = ~uint64_t{0};

uint64_t RoundSeed(uint64_t seed, uint64_t round) {
  return MixSeed(seed, 1000 + round);
}

}  // namespace

bool RunMinesweeperResample(const RunOptions& options, RunResult* result) {
  Tracer tracer(options.trace, options.process_start);
  TimedPhase phase;
  Checker checker;
  std::unique_ptr<Dataset> ds;
  std::map<std::string, wcoj::BoundQuery> bound;  // by shape
  std::map<std::string, std::unique_ptr<wcoj::Engine>> engines;
  std::vector<Cell> cells;
  {
    Span setup(tracer, "setup");
    ds = MakeDataset(kPowerLaw, MixSeed(options.seed, 1), kSampleSize,
                     RoundSeed(options.seed, 0), tracer);
    auto add = [&](const std::string& engine, const std::string& shape) {
      if (engines.count(engine) == 0) engines[engine] = wcoj::CreateEngine(engine);
      if (bound.count(shape) == 0) {
        bound[shape] = BindShape(ShapeByName(shape), *ds);
      }
      Cell cell;
      cell.name = engine + ":" + shape;
      cell.engine_name = engine;
      cell.shape = &ShapeByName(shape);
      cell.bound = &bound[shape];
      cell.engine = engines[engine].get();
      cells.push_back(std::move(cell));
    };
    for (const char* engine : {"ms", "#ms", "hybrid"}) {
      for (const char* shape : {"3-path", "4-path", "2-comb", "2-tree", "1-tree"}) {
        add(engine, shape);
      }
    }
    add("hybrid", "2-lollipop");
    add("ms", "3-clique");
    Span build(tracer, "storage.index_build");
    uint64_t builds = 0;
    for (const auto& [shape, q] : bound) {
      builds += wcoj::WarmQueryIndexes(q).index_builds;
    }
    build.Count("index_builds", static_cast<double>(builds));
  }
  wcoj::WorkerPool pool(kThreads);
  wcoj::ExecScratchPool scratch;
  scratch.Reserve(kThreads);
  phase.setup_s = SecondsSince(options.process_start);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t request = 0;
  uint64_t rounds = 0;
  std::vector<double> last_round_seconds(cells.size(), 0.0);
  // Traced runs: per round, the largest heap growth during one hybrid
  // cell (its Minesweeper prefix rows are buffered on the heap).
  std::vector<double> hybrid_heap_mb;
  const Clock::time_point start = Clock::now();
  for (;;) {
    ++rounds;
    Span round(tracer, "round");
    {
      Span span(tracer, "graph.resample");
      const uint64_t drawn =
          options.fault == Fault::kRoundSamples ? rounds + 1 : rounds;
      PutSamples(ds.get(), RoundSeed(options.seed, drawn));
    }
    {
      Span span(tracer, "parallel.prewarm");
      uint64_t builds = 0;
      for (const auto& [shape, q] : bound) {
        wcoj::Status status;
        builds += wcoj::WarmQueryIndexesParallel(q, kThreads, nullptr, &status)
                      .index_builds;
        checker.ExpectTrue("prewarm " + shape, status.ok());
      }
      span.Count("index_builds", static_cast<double>(builds));
    }
    double round_heap_mb = 0.0;
    for (size_t i = 0; i < cells.size(); ++i) {
      Cell& cell = cells[i];
      ++attempted;
      const bool heap = options.trace && cell.engine_name == "hybrid";
      wcoj::ExecOptions exec;
      exec.deadline = wcoj::Deadline::AfterSeconds(kDeadlineSeconds);
      const Clock::time_point t0 = Clock::now();
      wcoj::ExecResult r;
      {
        Span span(tracer, ExecuteSpanName(cell.engine_name), ++request);
        const int64_t heap_base = heap ? ResetHeapPeak() : 0;
        r = wcoj::PartitionedExecute(*cell.engine, *cell.bound, exec, kThreads,
                                     kGranularity, &scratch, &pool);
        if (heap) {
          const double mb = static_cast<double>(HeapPeakBytes() - heap_base) / (1 << 20);
          span.Count("heap_peak_mb", mb);
          round_heap_mb = std::max(round_heap_mb, mb);
        }
        CountStats(span, r);
      }
      const double seconds = SecondsSince(t0);
      if (options.fault == Fault::kCount && attempted == 1) ++r.count;
      last_round_seconds[i] = seconds;
      if (!r.ok()) {
        ++failed;
        cell.counts.push_back(kFailed);
        std::fprintf(stderr, "%s failed: %s\n", cell.name.c_str(),
                     r.status.ToString().c_str());
        continue;
      }
      cell.counts.push_back(r.count);
      phase.latency.Add(cell.name, seconds * 1e3);
      ++phase.answered;
    }
    hybrid_heap_mb.push_back(round_heap_mb);
    if (SecondsSince(start) >= options.seconds &&
        phase.latency.size() >= options.min_samples) {
      break;
    }
  }
  phase.timed_s = SecondsSince(start);
  phase.peak_rss_mb = PeakRssMb();

  // Serial Execute on the last round's samples (still resident) must
  // count what the 2-worker morsel runs counted.
  double serial_seconds = 0.0;
  double partitioned_seconds = 0.0;
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    wcoj::ExecScratch serial_scratch;
    wcoj::ExecOptions exec;
    exec.scratch = &serial_scratch;
    exec.deadline = wcoj::Deadline::AfterSeconds(kDeadlineSeconds);
    const Clock::time_point t0 = Clock::now();
    const wcoj::ExecResult r = cell.engine->Execute(*cell.bound, exec);
    serial_seconds += SecondsSince(t0);
    partitioned_seconds += last_round_seconds[i];
    if (cell.counts.back() == kFailed) continue;
    checker.ExpectTrue(cell.name + " serial run", r.ok());
    checker.Expect(cell.name + " serial vs 2-worker", r.count,
                   cell.counts.back());
  }

  // Independent answers, round by round: adjacency-vector products over
  // the samples each round drew.
  ds->oracle = std::make_unique<Adjacency>(ds->graph->num_nodes(),
                                           ds->graph->edges());
  const Vec triangles = ds->oracle->TrianglesPerNode();
  const uint64_t clique3 = ds->oracle->Triangles();
  for (uint64_t r = 0; r < rounds; ++r) {
    const std::vector<Vec> samples =
        SampleIndicators(*ds, RoundSeed(options.seed, r + 1));
    std::map<std::string, uint64_t> want;
    for (const auto& [shape, q] : bound) {
      want[shape] = shape == "3-clique"
                        ? clique3
                        : OracleCount(shape, *ds->oracle, samples, &triangles);
    }
    std::map<std::string, uint64_t> first;  // engines agree per shape
    for (const Cell& cell : cells) {
      if (r >= cell.counts.size() || cell.counts[r] == kFailed) continue;
      const std::string what =
          cell.name + " round " + std::to_string(r + 1);
      checker.Expect(what + " vs oracle", cell.counts[r], want[cell.shape->name]);
      if (first.count(cell.shape->name) != 0) {
        checker.Expect(what + " vs other engines", cell.counts[r],
                       first[cell.shape->name]);
      }
      first.emplace(cell.shape->name, cell.counts[r]);
    }
  }

  result->attempted = attempted;
  result->failed = failed;
  if (!options.trace) {
    AddEndToEnd(phase, result);
  } else {
    LayerValues values;
    CommonLayerValues(tracer, phase, &values);
    values["graph.resample_s"] = Median(tracer.Durations("graph.resample"));
    values["parallel.prewarm_s"] = Median(tracer.Durations("parallel.prewarm"));
    values["parallel.speedup"] = serial_seconds / partitioned_seconds;
    values["parallel.cds_nodes_recycled"] =
        Median(tracer.CountUnder("cds_nodes_recycled", "round"));
    values["core.ms.execute_s"] =
        Median(tracer.SumUnder("core.ms.execute", "round"));
    values["core.hybrid.execute_s"] =
        Median(tracer.SumUnder("core.hybrid.execute", "round"));
    values["core.hybrid.peak_heap_mb"] = Median(hybrid_heap_mb);
    CdsLayerValues(tracer, "round", &values);
    LayerContext ctx;
    ctx.tracer = &tracer;
    ctx.options = &options;
    ctx.datasets.push_back(ds.get());
    ctx.probe = ds.get();
    for (const auto& [shape, q] : bound) {
      ctx.queries.push_back(&q);
      ctx.shapes.push_back(&ShapeByName(shape));
    }
    ProbeMissingLayers(ctx, &values, &checker);
    if (!AddPerLayer(values, result)) return false;
    if (!tracer.Dump(options.out_dir + "/trace-minesweeper_resample.jsonl")) {
      return false;
    }
  }
  result->correct = checker.ok();
  return true;
}

}  // namespace perfbench
