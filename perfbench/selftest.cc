// The benchmark's self-test: its independent answers agree with every
// engine on a small graph, and each workload's own checks pass a clean
// run and reject a run whose answers were corrupted on the way.

#include <cstdio>

#include "core/atom_index.h"
#include "workloads.h"

namespace perfbench {

namespace {

using RunFn = bool (*)(const RunOptions&, RunResult*);

struct Case {
  const char* workload;
  RunFn run;
  Fault fault;
  const char* fault_name;
};

}  // namespace

int RunSelfTest(const std::string& out_dir) {
  Tracer tracer(false, Clock::now());
  const GraphSpec spec{"rmat", GraphKind::kCommunity, 1 << 8, 1500};
  std::unique_ptr<Dataset> ds =
      MakeDataset(spec, /*seed=*/1, /*sample_size=*/8, /*sample_seed=*/2, tracer);
  ds->oracle = std::make_unique<Adjacency>(ds->graph->num_nodes(),
                                           ds->graph->edges());
  const std::vector<Vec> samples = SampleIndicators(*ds, 2);
  const Vec triangles = ds->oracle->TrianglesPerNode();

  Checker agree;  // engines vs oracle: must all pass
  for (const char* name : {"3-clique", "4-clique", "4-cycle", "3-path", "4-path",
                           "1-tree", "2-tree", "2-comb", "2-lollipop"}) {
    const wcoj::BoundQuery q = BindShape(ShapeByName(name), *ds);
    wcoj::WarmQueryIndexes(q);
    const uint64_t want = OracleCount(name, *ds->oracle, samples, &triangles);
    for (const char* engine_name : {"lftj", "ms", "#ms", "hybrid"}) {
      const std::unique_ptr<wcoj::Engine> engine = wcoj::CreateEngine(engine_name);
      const wcoj::ExecResult r = engine->Execute(q, wcoj::ExecOptions{});
      agree.ExpectTrue(std::string(engine_name) + ":" + name + " ran", r.ok());
      agree.Expect(std::string(engine_name) + ":" + name + " vs oracle", r.count,
                   want);
    }
  }
  std::fprintf(stderr, "self-test: %llu engine answers checked, %llu mismatches\n",
               static_cast<unsigned long long>(agree.checks()),
               static_cast<unsigned long long>(agree.failures()));

  // One round of every workload, clean and with every fault it can
  // take. A clean run must pass its checks; a faulty one must fail them.
  const Case cases[] = {
      {"cyclic_lftj", RunCyclicLftj, Fault::kNone, "none"},
      {"cyclic_lftj", RunCyclicLftj, Fault::kCount, "count"},
      {"minesweeper_resample", RunMinesweeperResample, Fault::kNone, "none"},
      {"minesweeper_resample", RunMinesweeperResample, Fault::kCount, "count"},
      {"minesweeper_resample", RunMinesweeperResample, Fault::kRoundSamples,
       "round-samples"},
      {"served_mix", RunServedMix, Fault::kNone, "none"},
      {"served_mix", RunServedMix, Fault::kCount, "count"},
      {"served_mix", RunServedMix, Fault::kServerCount, "server-count"},
  };
  int wrong = 0;
  for (const Case& c : cases) {
    RunOptions options;
    options.workload = c.workload;
    options.seed = 1;
    options.seconds = 1e-9;  // one round
    options.min_samples = 1;
    options.out_dir = out_dir;
    options.fault = c.fault;
    options.process_start = Clock::now();
    RunResult result;
    const bool ran = c.run(options, &result);
    const bool want_correct = c.fault == Fault::kNone;
    const bool ok = ran && result.correct == want_correct;
    std::fprintf(stderr, "self-test: %s, fault %s: %s (%s)\n", c.workload,
                 c.fault_name, result.correct ? "checks pass" : "checks fail",
                 ok ? "as expected" : "WRONG");
    if (!ok) ++wrong;
  }
  const bool ok = agree.ok() && wrong == 0;
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace perfbench
