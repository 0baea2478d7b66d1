// cyclic_lftj: Leapfrog Triejoin on the cyclic shapes (3-clique,
// 4-clique, 4-cycle) over an R-MAT community mirror and a power-law
// mirror, single-threaded, against a warm heap-built catalog. Nearly all
// the time is leapfrog seeks over the CSR tries; no CDS, morsel
// scheduling or serving runs.

#include <cstdio>

#include "core/atom_index.h"
#include "workloads.h"

namespace perfbench {

namespace {

const GraphSpec kCommunity{"rmat", GraphKind::kCommunity, 1 << 12, 30000};
const GraphSpec kPowerLaw{"powerlaw", GraphKind::kPowerLaw, 3000, 30000};
constexpr int64_t kSampleSize = 60;  // v1..v4, read only by the probes
constexpr double kDeadlineSeconds = 30.0;
constexpr size_t kTwiceCell = 3;  // 3-clique on the power-law mirror

struct Cell {
  std::string name;
  Dataset* ds = nullptr;
  const Shape* shape = nullptr;
  wcoj::BoundQuery bound;
  uint64_t count = 0;
  bool answered = false;
};

}  // namespace

bool RunCyclicLftj(const RunOptions& options, RunResult* result) {
  Tracer tracer(options.trace, options.process_start);
  TimedPhase phase;
  Checker checker;
  std::vector<std::unique_ptr<Dataset>> data;
  std::vector<Cell> cells;
  {
    Span setup(tracer, "setup");
    data.push_back(MakeDataset(kCommunity, MixSeed(options.seed, 1),
                               kSampleSize, MixSeed(options.seed, 2), tracer));
    data.push_back(MakeDataset(kPowerLaw, MixSeed(options.seed, 3), kSampleSize,
                               MixSeed(options.seed, 4), tracer));
    for (const auto& ds : data) {
      for (const char* shape : {"3-clique", "4-clique", "4-cycle"}) {
        Cell cell;
        cell.name = std::string(shape) + "@" + ds->name;
        cell.ds = ds.get();
        cell.shape = &ShapeByName(shape);
        cell.bound = BindShape(*cell.shape, *ds);
        cells.push_back(std::move(cell));
      }
    }
    Span build(tracer, "storage.index_build");
    uint64_t builds = 0;
    for (const Cell& cell : cells) {
      builds += wcoj::WarmQueryIndexes(cell.bound).index_builds;
    }
    build.Count("index_builds", static_cast<double>(builds));
  }
  const std::unique_ptr<wcoj::Engine> lftj = wcoj::CreateEngine("lftj");
  wcoj::ExecScratch scratch;
  phase.setup_s = SecondsSince(options.process_start);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t request = 0;
  const Clock::time_point start = Clock::now();
  for (;;) {
    Span round(tracer, "round");
    for (size_t i = 0; i <= cells.size(); ++i) {
      // The cheapest cell runs twice per round: seven samples a round put
      // the median inside one cell's spread, not between two cells.
      Cell& cell = cells[i < cells.size() ? i : kTwiceCell];
      ++attempted;
      wcoj::ExecOptions exec;
      exec.scratch = &scratch;
      exec.deadline = wcoj::Deadline::AfterSeconds(kDeadlineSeconds);
      const Clock::time_point t0 = Clock::now();
      wcoj::ExecResult r;
      {
        Span span(tracer, "core.lftj.execute", ++request);
        r = lftj->Execute(cell.bound, exec);
        CountStats(span, r);
      }
      const double ms = SecondsSince(t0) * 1e3;
      if (options.fault == Fault::kCount && attempted == 1) ++r.count;
      if (!r.ok()) {
        ++failed;
        std::fprintf(stderr, "%s failed: %s\n", cell.name.c_str(),
                     r.status.ToString().c_str());
        continue;
      }
      phase.latency.Add(cell.name, ms);
      ++phase.answered;
      if (cell.answered) {
        checker.Expect(cell.name + " repeat", r.count, cell.count);
      }
      cell.count = r.count;
      cell.answered = true;
    }
    if (SecondsSince(start) >= options.seconds &&
        phase.latency.size() >= options.min_samples) {
      break;
    }
  }
  phase.timed_s = SecondsSince(start);
  phase.peak_rss_mb = PeakRssMb();

  // Independent answers: plain adjacency-set enumeration.
  for (const auto& ds : data) {
    ds->oracle = std::make_unique<Adjacency>(ds->graph->num_nodes(),
                                             ds->graph->edges());
  }
  for (const Cell& cell : cells) {
    if (!cell.answered) continue;
    checker.Expect(cell.name + " vs oracle", cell.count,
                   OracleCount(cell.shape->name, *cell.ds->oracle, {}));
  }

  result->attempted = attempted;
  result->failed = failed;
  if (!options.trace) {
    AddEndToEnd(phase, result);
  } else {
    LayerValues values;
    CommonLayerValues(tracer, phase, &values);
    values["core.lftj.execute_s"] =
        Median(tracer.SumUnder("core.lftj.execute", "round"));
    LayerContext ctx;
    ctx.tracer = &tracer;
    ctx.options = &options;
    for (const auto& ds : data) ctx.datasets.push_back(ds.get());
    ctx.probe = data[0].get();
    ctx.seek_relation = "edge_lt";
    for (const Cell& cell : cells) {
      ctx.queries.push_back(&cell.bound);
      if (cell.ds == data[0].get()) ctx.shapes.push_back(cell.shape);
    }
    ProbeMissingLayers(ctx, &values, &checker);
    if (!AddPerLayer(values, result)) return false;
    if (!tracer.Dump(options.out_dir + "/trace-cyclic_lftj.jsonl")) return false;
  }
  result->correct = checker.ok();
  return true;
}

}  // namespace perfbench
