// served_mix: an in-process wcoj::Server on loopback, fed by two
// closed-loop client connections on two admission slots with one thread
// per query, so requests never queue. The catalog is saved once and
// served mmap-loaded (the wcoj_serverd --load-catalog path). Requests
// are mostly cheap LFTJ lookups plus some 4-clique analytics; about one
// in ten carries a never-seen text, so the prepared cache misses and
// parse/bind/AGM run on the request path.
//
// The lookups address 64 named node groups g0..g63 (16 nodes each) in
// turn, not one fixed v1/v2 pair: a lookup's cost depends on whether its
// nodes are hubs, so spreading every run over many groups keeps the
// median lookup from swinging with the seed.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <sstream>
#include <thread>

#include "core/atom_index.h"
#include "graph/sampling.h"
#include "query/parser.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {

// ---------------------------------------------------------------------
// Client

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

bool Client::Connect(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) == 0;
}

bool Client::Call(const std::string& line, std::string* reply) {
  const std::string out = line + "\n";
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  for (;;) {
    const size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      *reply = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

std::string FreshText(const std::string& text, uint64_t fresh) {
  if (fresh == 0) return text;
  // Rename every variable (the identifiers inside parentheses).
  const std::string suffix = "_" + std::to_string(fresh);
  auto ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  std::string out;
  bool in_atom = false;
  for (size_t i = 0; i < text.size(); ++i) {
    out += text[i];
    if (text[i] == '(') in_atom = true;
    if (text[i] == ')') in_atom = false;
    const bool last = i + 1 == text.size() || !ident(text[i + 1]);
    if (in_atom && ident(text[i]) && last) out += suffix;
  }
  return out;
}

bool ParseStatsReply(const std::string& line,
                     std::map<std::string, uint64_t>* out) {
  std::istringstream in(line);
  std::string ok, stats, kv;
  if (!(in >> ok >> stats) || ok != "OK" || stats != "stats") return false;
  while (in >> kv) {
    const size_t eq = kv.find('=');
    if (eq == std::string::npos) return false;
    (*out)[kv.substr(0, eq)] = std::stoull(kv.substr(eq + 1));
  }
  return true;
}

// ---------------------------------------------------------------------
// Workload

namespace {

// The power-law mirror: milder hubs than R-MAT's, so lookups over
// different node groups cost alike.
const GraphSpec kPowerLaw{"powerlaw", GraphKind::kPowerLaw, 8192, 60000};
constexpr int64_t kSampleSize = 16;  // v1..v4, read only by the probes
constexpr int kGroups = 64;          // node groups the lookups use
constexpr int64_t kGroupSize = 16;   // selectivity 512
constexpr int kClients = 2;
constexpr int64_t kDeadlineMs = 30000;
// Holds every base text plus the fresh ones, so no base text is evicted
// and the hit/miss counts are exact.
constexpr size_t kCacheCapacity = 1024;

// One round of a client's closed loop: (shape, fresh text?).
struct Request {
  const char* shape;
  bool fresh;
};
const std::vector<Request>& Schedule() {
  // Per round of 20: 30% 1-tree, 40% 3-path or 2-comb, 15% 3-clique,
  // 15% 4-clique, so the median and the 90th percentile both fall
  // inside one kind's spread; two of the 20 texts are never-seen.
  static const std::vector<Request>* const kSchedule = new std::vector<Request>{
      {"1-tree", false},   {"3-path", false},   {"2-comb", false},
      {"3-clique", false}, {"1-tree", false},   {"3-path", false},
      {"2-comb", true},    {"4-clique", false}, {"1-tree", false},
      {"3-path", false},   {"1-tree", true},    {"2-comb", false},
      {"3-clique", false}, {"1-tree", false},   {"3-path", false},
      {"4-clique", false}, {"2-comb", false},   {"1-tree", false},
      {"3-clique", false}, {"4-clique", false},
  };
  return *kSchedule;
}
const std::vector<std::string>& ServedShapes() {
  static const std::vector<std::string>* const kShapes =
      new std::vector<std::string>{"1-tree", "3-path", "2-comb", "3-clique",
                                   "4-clique"};
  return *kShapes;
}

std::string GroupName(int g) { return "g" + std::to_string(g % kGroups); }

// A request's base text: lookups read groups g and g+1 where the paper's
// text reads v1 and v2; the cliques read no samples (group is ignored).
std::string BaseText(const Shape& shape, int group) {
  std::string text = shape.query_text;
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"v1(", GroupName(group) + "("},
        {"v2(", GroupName(group + 1) + "("}}) {
    const size_t at = text.find(from);
    if (at != std::string::npos) text.replace(at, from.size(), to);
  }
  return text;
}

// Every distinct base text: each lookup shape over each group, and the
// two cliques. Keyed "shape@group" ("shape" for the cliques).
std::map<std::string, std::string> BaseTexts() {
  std::map<std::string, std::string> texts;
  for (const std::string& name : ServedShapes()) {
    const Shape& shape = ShapeByName(name);
    if (shape.num_samples == 0) {
      texts[name] = shape.query_text;
      continue;
    }
    for (int g = 0; g < kGroups; ++g) {
      texts[name + "@" + std::to_string(g)] = BaseText(shape, g);
    }
  }
  return texts;
}

// What one client thread saw.
struct ClientLog {
  LatencyLog latency;
  std::vector<double> overhead_ms;  // round trip minus server execution
  std::vector<double> execute_ms;   // the reply's own execution time
  std::map<std::string, std::set<uint64_t>> counts;  // by BaseTexts key
  uint64_t sent = 0;
  uint64_t fresh = 0;
  uint64_t answered = 0;
  uint64_t failed = 0;
  bool io_error = false;
  Clock::time_point end;
};

void ClientLoop(Client* client, int id, const RunOptions& options,
                Clock::time_point start, std::atomic<uint64_t>* next_fresh,
                Tracer* tracer, ClientLog* log) {
  const std::vector<Request>& schedule = Schedule();
  const size_t offset = static_cast<size_t>(id) * schedule.size() / kClients;
  int group = id * kGroups / kClients;
  for (;;) {
    Span round(*tracer, "round");
    for (size_t k = 0; k < schedule.size(); ++k) {
      const Request& req = schedule[(k + offset) % schedule.size()];
      const Shape& shape = ShapeByName(req.shape);
      std::string key = req.shape;
      std::string text = shape.query_text;
      if (shape.num_samples > 0) {
        key += "@" + std::to_string(group);
        text = BaseText(shape, group);
        group = (group + 1) % kGroups;
      }
      const uint64_t fresh = req.fresh ? next_fresh->fetch_add(1) : 0;
      const std::string line = "Q lftj " + std::to_string(kDeadlineMs) +
                               " 0 " + FreshText(text, fresh);
      std::string reply_line;
      ++log->sent;
      if (req.fresh) ++log->fresh;
      const Clock::time_point t0 = Clock::now();
      bool io_ok = false;
      {
        Span span(*tracer, "server.roundtrip",
                  (static_cast<uint64_t>(id) << 48) + log->sent);
        io_ok = client->Call(line, &reply_line);
        wcoj::ServerReply reply;
        if (io_ok && wcoj::ParseReplyLine(reply_line, &reply) && reply.ok) {
          const double ms = SecondsSince(t0) * 1e3;
          if (options.fault == Fault::kCount && id == 0 && log->answered == 0) {
            ++reply.count;
          }
          const std::string cell =
              std::string(req.shape) + (req.fresh ? "/miss" : "");
          log->latency.Add(cell, ms);
          log->overhead_ms.push_back(ms - reply.seconds * 1e3);
          log->execute_ms.push_back(reply.seconds * 1e3);
          log->counts[key].insert(reply.count);
          ++log->answered;
          span.Count("seeks", static_cast<double>(reply.seeks));
          span.Count("tuples", static_cast<double>(reply.count));
          span.Count("execute_s", reply.seconds);
        } else {
          ++log->failed;
          std::fprintf(stderr, "client %d: %s -> %s\n", id, line.c_str(),
                       io_ok ? reply_line.c_str() : "I/O error");
        }
      }
      if (!io_ok) {
        log->io_error = true;
        log->end = Clock::now();
        return;
      }
    }
    if (SecondsSince(start) >= options.seconds &&
        log->latency.size() >= options.min_samples / kClients) {
      break;
    }
  }
  log->end = Clock::now();
}

}  // namespace

bool RunServedMix(const RunOptions& options, RunResult* result) {
  Tracer tracer(options.trace, options.process_start);
  TimedPhase phase;
  Checker checker;
  const std::string catalog_dir =
      options.out_dir + "/served-catalog-" + std::to_string(::getpid());
  std::unique_ptr<Dataset> ds;
  wcoj::Database served;  // the server's relations, indexes mmap-loaded
  std::vector<wcoj::BoundQuery> warm_queries;
  std::unique_ptr<wcoj::Server> server;
  Client clients[kClients];
  double catalog_file_mb = 0.0;
  uint64_t primed = 0;
  {
    Span setup(tracer, "setup");
    ds = MakeDataset(kPowerLaw, MixSeed(options.seed, 1), kSampleSize,
                     MixSeed(options.seed, 2), tracer);
    {
      Span span(tracer, "graph.relations");
      for (int g = 0; g < kGroups; ++g) {
        ds->db.Put(GroupName(g),
                   wcoj::SampleNodesExact(*ds->graph, kGroupSize,
                                          MixSeed(options.seed, 100 + g)));
      }
    }
    {
      // The server binds with the text's first-appearance variable
      // order; warm exactly the indexes that order needs.
      Span build(tracer, "storage.index_build");
      uint64_t builds = 0;
      for (const auto& [key, text] : BaseTexts()) {
        const wcoj::Query q = wcoj::MustParseQuery(text);
        warm_queries.push_back(wcoj::Bind(q, ds->db, q.Variables()));
        builds += wcoj::WarmQueryIndexes(warm_queries.back()).index_builds;
      }
      build.Count("index_builds", static_cast<double>(builds));
    }
    std::filesystem::remove_all(catalog_dir);
    size_t saved = 0;
    {
      Span span(tracer, "storage.catalog_save");
      wcoj::Status status;
      saved = ds->db.SaveCatalog(catalog_dir, &status);
      checker.ExpectTrue("catalog save: " + status.ToString(), status.ok());
    }
    catalog_file_mb = static_cast<double>(DirectoryBytes(catalog_dir)) / (1 << 20);
    for (const char* name : {"edge", "edge_lt", "node"}) {
      served.Put(name, *ds->db.Find(name));
    }
    for (int g = 0; g < kGroups; ++g) {
      served.Put(GroupName(g), *ds->db.Find(GroupName(g)));
    }
    {
      Span span(tracer, "storage.catalog_open");
      wcoj::CatalogOpenStats stats;
      const size_t installed = served.LoadCatalog(catalog_dir, &stats);
      checker.ExpectTrue("catalog open: " + stats.status.ToString(),
                         stats.status.ok());
      checker.Expect("catalog indexes mmap-loaded", installed, saved);
      checker.Expect("catalog open skips", stats.skipped, 0);
    }
    ds->db.catalog()->Clear();  // the heap-built copies are not served
    warm_queries.clear();
    wcoj::ServerConfig config;
    config.max_concurrency = kClients;
    config.threads_per_query = 1;
    config.default_deadline_ms = kDeadlineMs;
    config.cache_capacity = kCacheCapacity;
    server = std::make_unique<wcoj::Server>(served.Map(), served.catalog(),
                                            config);
    {
      Span span(tracer, "server.start");
      const wcoj::Status status = server->Start();
      if (!status.ok()) {
        std::fprintf(stderr, "server start: %s\n", status.ToString().c_str());
        return false;
      }
    }
    {
      Span span(tracer, "server.connect");
      for (Client& c : clients) {
        if (!c.Connect(server->port())) {
          std::fprintf(stderr, "connect to port %d failed\n", server->port());
          return false;
        }
      }
    }
    // A warm server: every base text is prepared once before timing.
    for (const auto& [key, text] : BaseTexts()) {
      std::string reply;
      const bool ok = clients[0].Call(
          "Q lftj " + std::to_string(kDeadlineMs) + " 0 " + text, &reply);
      checker.ExpectTrue("prime " + key + ": " + reply,
                         ok && reply.rfind("OK ", 0) == 0);
      ++primed;
    }
  }
  phase.setup_s = SecondsSince(options.process_start);

  std::atomic<uint64_t> next_fresh{1};
  ClientLog logs[kClients];
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back(ClientLoop, &clients[i], i, std::cref(options), start,
                           &next_fresh, &tracer, &logs[i]);
    }
    for (std::thread& t : threads) t.join();
  }
  Clock::time_point end = start;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t fresh = 0;
  std::vector<double> overhead_ms, execute_ms;
  std::map<std::string, std::set<uint64_t>> counts;
  for (const ClientLog& log : logs) {
    end = std::max(end, log.end);
    attempted += log.sent;
    failed += log.failed;
    fresh += log.fresh;
    phase.answered += log.answered;
    phase.latency.Merge(log.latency);
    checker.ExpectTrue("client I/O", !log.io_error);
    overhead_ms.insert(overhead_ms.end(), log.overhead_ms.begin(),
                       log.overhead_ms.end());
    execute_ms.insert(execute_ms.end(), log.execute_ms.begin(),
                      log.execute_ms.end());
    for (const auto& [shape, seen] : log.counts) {
      counts[shape].insert(seen.begin(), seen.end());
    }
  }
  phase.timed_s = SecondsBetween(start, end);
  phase.peak_rss_mb = PeakRssMb();

  // Server-side bookkeeping must match what the clients sent.
  if (options.fault == Fault::kServerCount) {
    std::string reply;
    clients[0].Call("Q lftj 0 0 " + ShapeByName("3-clique").query_text, &reply);
  }
  std::map<std::string, uint64_t> stats;
  {
    std::string reply;
    checker.ExpectTrue("STATS reply",
                       clients[0].Call("STATS", &reply) &&
                           ParseStatsReply(reply, &stats));
  }
  const uint64_t queries = attempted + primed;
  checker.Expect("server requests (queries + this STATS)", stats["requests"],
                 queries + 1);
  checker.Expect("server ok replies", stats["ok"], queries - failed);
  checker.Expect("cache hits + misses", stats["cache_hits"] + stats["cache_misses"],
                 queries);
  checker.Expect("cache misses (primed + fresh texts)", stats["cache_misses"],
                 primed + fresh);
  checker.Expect("requests shed", stats["shed"], 0);
  for (Client& c : clients) {
    std::string reply;
    c.Call("QUIT", &reply);
  }
  server->Drain();
  server.reset();
  std::filesystem::remove_all(catalog_dir);

  // Independent answers.
  ds->oracle = std::make_unique<Adjacency>(ds->graph->num_nodes(),
                                           ds->graph->edges());
  std::vector<Vec> groups;
  for (int g = 0; g < kGroups; ++g) {
    const wcoj::Relation* rel = ds->db.Find(GroupName(g));
    std::vector<int64_t> nodes;
    for (size_t row = 0; row < rel->size(); ++row) nodes.push_back(rel->At(row, 0));
    groups.push_back(ds->oracle->Indicator(nodes));
  }
  for (const auto& [key, seen] : counts) {
    const size_t at = key.find('@');
    const int g = at == std::string::npos ? 0 : std::atoi(key.c_str() + at + 1);
    checker.Expect(key + " distinct answers", seen.size(), 1);
    checker.Expect(key + " vs oracle", *seen.begin(),
                   OracleCount(key.substr(0, at), *ds->oracle,
                               {groups[g], groups[(g + 1) % kGroups]}));
  }

  result->attempted = attempted;
  result->failed = failed;
  if (!options.trace) {
    AddEndToEnd(phase, result);
  } else {
    LayerValues values;
    CommonLayerValues(tracer, phase, &values);
    values["storage.catalog_save_s"] =
        Sum(tracer.Durations("storage.catalog_save"));
    values["storage.catalog_open_s"] =
        Sum(tracer.Durations("storage.catalog_open"));
    values["storage.catalog_file_mb"] = catalog_file_mb;
    values["core.lftj.execute_s"] =
        Median(tracer.CountUnder("execute_s", "round"));
    values["server.roundtrip_overhead_ms"] = Median(overhead_ms);
    values["server.execute_ms"] = Quantile(execute_ms, 0.9);
    values["server.cache_hit_ratio"] =
        static_cast<double>(stats["cache_hits"]) /
        static_cast<double>(stats["cache_hits"] + stats["cache_misses"]);
    LayerContext ctx;
    ctx.tracer = &tracer;
    ctx.options = &options;
    ctx.datasets.push_back(ds.get());
    ctx.probe = ds.get();
    // The served (mmap-backed) indexes, as the server binds them.
    std::vector<wcoj::BoundQuery> served_queries;
    for (const std::string& name : ServedShapes()) {
      ctx.shapes.push_back(&ShapeByName(name));
    }
    for (const auto& [key, text] : BaseTexts()) {
      const wcoj::Query q = wcoj::MustParseQuery(text);
      served_queries.push_back(wcoj::Bind(q, served, q.Variables()));
    }
    for (const wcoj::BoundQuery& q : served_queries) ctx.queries.push_back(&q);
    ProbeMissingLayers(ctx, &values, &checker);
    if (!AddPerLayer(values, result)) return false;
    if (!tracer.Dump(options.out_dir + "/trace-served_mix.jsonl")) return false;
  }
  result->correct = checker.ok();
  return true;
}

}  // namespace perfbench
