#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's inputs and workloads.
//
// Every input is generated from the run's --seed: the graphs (an R-MAT
// community mirror and a Barabasi-Albert power-law mirror), the node
// samples v1..v4, and every probe stream. The driver reaches the system
// only through the public headers of src/graph, src/storage, src/query,
// src/core, src/parallel and src/server.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/workloads.h"
#include "core/engine.h"
#include "graph/graph.h"
#include "harness.h"
#include "oracle.h"
#include "query/query.h"
#include "storage/catalog.h"

namespace perfbench {

// One of the paper's query shapes (Section 5.1): its text, GAO and how
// many of v1..v4 it reads, from the repository's own workload table.
using Shape = wcoj::Workload;
inline const Shape& ShapeByName(const std::string& name) {
  return wcoj::WorkloadByName(name);
}

enum class GraphKind { kCommunity, kPowerLaw };

struct GraphSpec {
  std::string name;
  GraphKind kind = GraphKind::kCommunity;
  int64_t nodes = 0;  // R-MAT: rounded up to a power of two
  int64_t edges = 0;
};

// A generated graph and its relations (edge, edge_lt, node, v1..v4) in
// a Database whose catalog holds the resident indexes.
struct Dataset {
  std::string name;
  std::unique_ptr<wcoj::Graph> graph;
  wcoj::Database db;
  int64_t sample_size = 0;
  std::unique_ptr<Adjacency> oracle;  // built after the timed phase
};

// Generates the graph (span graph.generate) and derives its relations
// with samples of `sample_size` nodes drawn from `sample_seed` (span
// graph.relations).
std::unique_ptr<Dataset> MakeDataset(const GraphSpec& spec, uint64_t seed,
                                     int64_t sample_size,
                                     uint64_t sample_seed, Tracer& tracer);
// Redraws v1..v4 (replacing them in the Database, which invalidates
// their cached indexes). Deterministic in (graph, size, seed).
void PutSamples(Dataset* ds, uint64_t sample_seed);
// The node ids of v1..v4 as SampleNodes would draw them for
// `sample_seed`, as oracle indicator vectors.
std::vector<Vec> SampleIndicators(const Dataset& ds, uint64_t sample_seed);

// Binds a shape against a dataset's Database (its catalog attached).
wcoj::BoundQuery BindShape(const Shape& shape, const Dataset& ds);

// Total bytes of the regular files in `dir` (a saved catalog).
uint64_t DirectoryBytes(const std::string& dir);

// Span name of an engine's Execute ("core.lftj.execute", ...; ms and
// #ms share "core.ms.execute").
const char* ExecuteSpanName(const std::string& engine);
// Records a result's EngineStats as counts on `span`.
void CountStats(Span& span, const wcoj::ExecResult& r);

// ---------------------------------------------------------------------
// Serving helpers (served_mix.cc)

// One blocking loopback connection speaking the wcoj_serverd protocol.
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(int port);
  // Sends one request line and reads one reply line. False on I/O error.
  bool Call(const std::string& line, std::string* reply);

 private:
  int fd_ = -1;
  std::string buf_;
};

// `text` with every variable renamed when `fresh` is nonzero: the same
// query under a text the prepared cache has never seen.
std::string FreshText(const std::string& text, uint64_t fresh);

// Parses "OK stats k=v ..." into a map. False on anything else.
bool ParseStatsReply(const std::string& line,
                     std::map<std::string, uint64_t>* out);

// ---------------------------------------------------------------------
// Per-layer metrics

// Everything the probe phase may read: the workload's own data.
struct LayerContext {
  Tracer* tracer = nullptr;
  const RunOptions* options = nullptr;
  std::vector<Dataset*> datasets;          // all of the workload's data
  Dataset* probe = nullptr;                // data the engine probes use
  std::string seek_relation = "edge";      // index the seek probes walk
  std::vector<const Shape*> shapes;        // the workload's query shapes
  std::vector<const wcoj::BoundQuery*> queries;  // its bound queries
};

using LayerValues = std::map<std::string, double>;

// Fills every per-layer metric the workload's traced timed phase did
// not provide, by probing the layers directly on the workload's data.
// Probes that produce answers check them through `checker`.
void ProbeMissingLayers(const LayerContext& ctx, LayerValues* values,
                        Checker* checker);
// Adds every per-layer metric to `result`; false if one is missing.
bool AddPerLayer(const LayerValues& values, RunResult* result);

// Values every traced workload derives the same way from its set-up
// spans and its per-round spans (rounds are spans named "round").
void CommonLayerValues(const Tracer& tracer, const TimedPhase& phase,
                       LayerValues* values);
// The core.cds.* values from the Minesweeper-family execute spans below
// spans named `ancestor` (medians over those spans for per-run counts).
void CdsLayerValues(const Tracer& tracer, const std::string& ancestor,
                    LayerValues* values);

// ---------------------------------------------------------------------
// Workloads

// Each runs one workload and fills `result`; false when the run could
// not complete (a set-up step or the span dump failed).
bool RunCyclicLftj(const RunOptions& options, RunResult* result);
bool RunMinesweeperResample(const RunOptions& options, RunResult* result);
bool RunServedMix(const RunOptions& options, RunResult* result);

// Checks the oracle against every engine on a small graph, then runs one
// round of each workload clean and with each injected Fault, and shows
// that the workload's own checks pass the clean runs and reject every
// faulty one. 0 on success.
int RunSelfTest(const std::string& out_dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
