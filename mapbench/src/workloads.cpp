#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/net.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "fabric/quale_fabric.hpp"
#include "fabric/text_io.hpp"
#include "layer_trace.hpp"
#include "qasm/parser.hpp"
#include "service/batch_mapper.hpp"
#include "service/request_codec.hpp"
#include "service/serve_loop.hpp"

namespace mapbench {

void Outcome::fail(std::string why) {
  ++failed;
  if (errors.size() < 10) errors.push_back(std::move(why));
}

namespace {

/// Set-up is repeated this many times per run and reported as the median.
constexpr int kSetupReps = 11;
/// serve_sessions: closed-loop client connections, and actions each client
/// performs per server lifetime (one pass).
constexpr int kServeClients = 4;
constexpr int kFreshActions = 38;
constexpr int kRepeatActions = 20;
constexpr int kSessionActions = 6;
constexpr int kServeWorkers = 2;
constexpr int kServeMapperThreads = 2;

// ------------------------------------------------------------ statistics ---

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Percentile with linear interpolation between closest ranks, q in [0, 1].
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(position);
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double weight = position - static_cast<double>(below);
  return values[below] * (1.0 - weight) + values[above] * weight;
}

double geomean(const std::map<std::string, double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const auto& [key, value] : values) log_sum += std::log(value);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double mean(double sum, long long count) {
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

/// Process user + system CPU time, milliseconds.
double process_cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<std::size_t> permutation(std::size_t n, qspr::Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  }
  return order;
}

/// The end-to-end numbers every workload reports. A run is a sequence of
/// passes over the workload's inputs; throughput and the latency
/// percentiles are taken per pass and reported as the median over passes,
/// so one disturbed pass cannot move them.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> pass_rates;  // successful maps per second, per pass
  std::vector<double> pass_laps;   // map latencies of the current pass
  std::vector<double> p50, p90, p99;  // per pass
  double cpu_ms = 0.0;
  long long maps = 0;
  std::map<std::string, double> ratios;  // key -> latency / ideal

  void add_map(double ms) { pass_laps.push_back(ms); }

  void end_pass(double pass_ms) {
    pass_rates.push_back(static_cast<double>(pass_laps.size()) * 1e3 /
                         pass_ms);
    if (!pass_laps.empty()) {
      p50.push_back(percentile(pass_laps, 0.50));
      p90.push_back(percentile(pass_laps, 0.90));
      p99.push_back(percentile(pass_laps, 0.99));
    }
    maps += static_cast<long long>(pass_laps.size());
    pass_laps.clear();
  }

  void record_ratio(const std::string& key, double latency, double ideal) {
    if (ideal > 0.0) ratios[key] = latency / ideal;
  }
};

void report_end_to_end(const EndToEnd& e2e, Outcome& out) {
  out.metrics.push_back({"setup_s", median(e2e.setup_s), "s",
                         static_cast<long long>(e2e.setup_s.size())});
  out.metrics.push_back({"maps_per_s", median(e2e.pass_rates), "1/s",
                         static_cast<long long>(e2e.pass_rates.size())});
  out.metrics.push_back({"map_ms_p50", median(e2e.p50), "ms", e2e.maps});
  out.metrics.push_back({"map_ms_p90", median(e2e.p90), "ms", e2e.maps});
  out.metrics.push_back({"map_ms_p99", median(e2e.p99), "ms", e2e.maps});
  out.metrics.push_back(
      {"cpu_ms_per_map", mean(e2e.cpu_ms, e2e.maps), "ms", e2e.maps});
  out.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 0});
  out.metrics.push_back({"latency_ratio", geomean(e2e.ratios), "ratio",
                         static_cast<long long>(e2e.ratios.size())});
}

// ------------------------------------------------------ serve client side ---

/// A map request line: `text_field` is "qasm" or "qasm_append"; `session`
/// and `fabric_spec` are omitted when empty (a session pins its fabric).
std::string map_request(const std::string& id, const std::string& session,
                        const char* text_field, const std::string& text,
                        const std::string& fabric_spec,
                        const qspr::MapperOptions& options) {
  const bool mvfb = options.placer == qspr::PlacerKind::Mvfb;
  qspr::JsonWriter json;
  json.begin_object();
  json.field("type", "map");
  json.field("id", id);
  if (!session.empty()) json.field("session", session);
  json.field(text_field, text);
  if (!fabric_spec.empty()) json.field("fabric", fabric_spec);
  // Every job of the benchmark uses the QSPR mapper, the server's default.
  json.field("placer", mvfb ? "mvfb" : "mc");
  json.field("m", mvfb ? options.mvfb_seeds : options.monte_carlo_trials);
  json.field("seed", static_cast<long long>(options.rng_seed));
  json.end_object();
  return json.str();
}

std::string map_line(const std::string& id, const BenchJob& job,
                     const std::string& fabric_spec) {
  return map_request(id, "", "qasm", job.qasm, fabric_spec, job.options);
}

std::string session_request(const char* type, const std::string& id,
                            const std::string& session) {
  qspr::JsonWriter json;
  json.begin_object();
  json.field("type", type);
  json.field("id", id);
  if (session.empty()) {
    json.field("fabric", "paper");
  } else {
    json.field("session", session);
  }
  json.end_object();
  return json.str();
}

/// One blocking request/reply connection to the in-process server.
class Client {
 public:
  explicit Client(int port) : fd_(qspr::connect_client("127.0.0.1", port)) {}

  /// Sends one request line; returns the reply line ("" when the
  /// connection broke).
  std::string call(const std::string& line) {
    const std::string framed = line + "\n";
    std::string_view data = framed;
    while (!data.empty()) {
      const qspr::IoResult io = qspr::write_some(fd_.get(), data);
      if (io.status != qspr::IoStatus::Ok) return {};
      data.remove_prefix(io.bytes);
    }
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string reply = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return reply;
      }
      char chunk[8192];
      const qspr::IoResult io = qspr::read_some(fd_.get(), chunk, sizeof chunk);
      if (io.status != qspr::IoStatus::Ok || io.bytes == 0) return {};
      buffer_.append(chunk, io.bytes);
    }
  }

 private:
  qspr::FileDescriptor fd_;
  std::string buffer_;
};

enum class ActionKind : std::uint8_t { Fresh, Repeat, Session };

/// One client action: a stateless map of jobs[index] (Fresh / Repeat), or a
/// session episode over scripts[index] — session_open, the base circuit,
/// each edit as qasm_append, session_close.
struct Action {
  ActionKind kind = ActionKind::Fresh;
  std::size_t index = 0;
};

struct ServeSample {
  ActionKind kind = ActionKind::Fresh;
  std::string key;
  double round_trip_ms = 0.0;
  bool ok = false;
  std::string code;
  long long latency_us = 0;
  long long ideal_us = 0;
  std::string fingerprint;
  double queue_ms = 0.0;
  double map_ms = 0.0;
  int warm_hits = 0;
  int nets_rerouted = 0;
};

/// What a serve pass sends: stateless jobs (with the server-side fabric
/// spec each names) and session scripts, all mapped with `session_options`
/// inside sessions.
struct ServeTraffic {
  std::vector<BenchJob> jobs;
  std::vector<std::string> fabric_specs;  // parallel to jobs
  std::vector<SessionScript> scripts;
  qspr::MapperOptions session_options;
};

struct ServePass {
  std::vector<ServeSample> samples;
  double wall_ms = 0.0;
  long long session_requests = 0;  // session_open + session_close
  std::vector<std::string> errors;
};

ServeSample parse_reply(const std::string& reply, ActionKind kind,
                        std::string key, double round_trip_ms) {
  ServeSample sample;
  sample.kind = kind;
  sample.key = std::move(key);
  sample.round_trip_ms = round_trip_ms;
  if (reply.empty()) {
    sample.code = "connection_lost";
    return sample;
  }
  const qspr::JsonValue json = qspr::parse_json(reply);
  sample.ok = json.bool_or("ok", false);
  sample.code = json.string_or("code", "");
  sample.latency_us = static_cast<long long>(json.number_or("latency_us", 0));
  sample.ideal_us =
      static_cast<long long>(json.number_or("ideal_latency_us", 0));
  sample.fingerprint = json.string_or("result_fp", "");
  sample.queue_ms = json.number_or("queue_ms", 0.0);
  sample.map_ms = json.number_or("map_ms", 0.0);
  sample.warm_hits = static_cast<int>(json.number_or("warm_hits", 0));
  sample.nets_rerouted = static_cast<int>(json.number_or("nets_rerouted", 0));
  return sample;
}

/// Runs one client's action list against `port`; appends to `pass` under
/// `mutex`.
void run_client(int client, int port, const std::vector<Action>& actions,
                const ServeTraffic& traffic, ServePass& pass,
                std::mutex& mutex) {
  std::vector<ServeSample> samples;
  std::vector<std::string> errors;
  long long session_requests = 0;
  try {
    Client connection(port);
    int next_id = 0;
    const auto id = [&] {
      return "c" + std::to_string(client) + "-" + std::to_string(next_id++);
    };
    const auto timed = [&](const std::string& line, ActionKind kind,
                           std::string key) {
      const qspr::Stopwatch lap;
      const std::string reply = connection.call(line);
      samples.push_back(
          parse_reply(reply, kind, std::move(key), lap.elapsed_ms()));
    };
    for (const Action& action : actions) {
      if (action.kind != ActionKind::Session) {
        const BenchJob& job = traffic.jobs[action.index];
        timed(map_line(id(), job, traffic.fabric_specs[action.index]),
              action.kind, job.key);
        continue;
      }
      const SessionScript& script = traffic.scripts[action.index];
      const std::string opened =
          connection.call(session_request("session_open", id(), ""));
      ++session_requests;
      const std::string name =
          opened.empty() ? "" : qspr::parse_json(opened).string_or("session", "");
      if (name.empty()) {
        errors.push_back("session_open failed: " + opened);
        continue;
      }
      for (std::size_t edits = 0; edits <= script.appends.size(); ++edits) {
        timed(map_request(id(), name, edits == 0 ? "qasm" : "qasm_append",
                          edits == 0 ? script.base_qasm
                                     : script.appends[edits - 1],
                          "", traffic.session_options),
              ActionKind::Session,
              job_key(script.step_id(edits), kPaperFabric,
                      traffic.session_options));
      }
      connection.call(session_request("session_close", id(), name));
      ++session_requests;
    }
  } catch (const std::exception& e) {
    errors.push_back("client " + std::to_string(client) + ": " + e.what());
  }
  const std::lock_guard<std::mutex> lock(mutex);
  pass.samples.insert(pass.samples.end(), samples.begin(), samples.end());
  pass.session_requests += session_requests;
  pass.errors.insert(pass.errors.end(), errors.begin(), errors.end());
}

/// Starts a fresh MappingServer, runs every client's actions closed-loop on
/// its own connection, then drains the server.
ServePass run_serve_pass(const std::vector<std::vector<Action>>& plan,
                         const ServeTraffic& traffic) {
  qspr::ServeOptions options;
  options.port = 0;
  options.workers = kServeWorkers;
  options.mapper_threads = kServeMapperThreads;
  options.max_queue = 16;
  options.default_options = traffic.session_options;
  qspr::MappingServer server(options);
  server.start();
  std::thread serving([&server] { (void)server.serve(); });
  // Drains and joins on every exit path, so a throwing client setup cannot
  // leave a joinable thread behind.
  struct Drain {
    qspr::MappingServer& server;
    std::thread& serving;
    ~Drain() {
      server.request_drain();
      serving.join();
    }
  } drain{server, serving};

  ServePass pass;
  std::mutex mutex;
  const qspr::Stopwatch wall;
  std::vector<std::jthread> clients;  // joined on every exit path
  clients.reserve(plan.size());
  for (std::size_t c = 0; c < plan.size(); ++c) {
    clients.emplace_back(run_client, static_cast<int>(c), server.port(),
                         std::cref(plan[c]), std::cref(traffic),
                         std::ref(pass), std::ref(mutex));
  }
  for (std::jthread& client : clients) client.join();
  pass.wall_ms = wall.elapsed_ms();
  return pass;
}

/// Checks a pass's replies against the expected results; successful maps
/// go into `e2e` when given.
void check_serve_pass(const ServePass& pass, const Context& context,
                      Outcome& out, EndToEnd* e2e) {
  for (const std::string& error : pass.errors) out.fail(error);
  for (const ServeSample& sample : pass.samples) {
    ++out.attempted;
    if (!sample.ok) {
      out.fail(sample.key + ": reply not ok (" + sample.code + ")");
      continue;
    }
    const std::string mismatch = context.expected->check(
        sample.key, sample.latency_us, sample.fingerprint);
    if (!mismatch.empty()) {
      out.fail(mismatch);
      continue;
    }
    if (e2e != nullptr) {
      e2e->add_map(sample.round_trip_ms);
      e2e->record_ratio(sample.key, static_cast<double>(sample.latency_us),
                        static_cast<double>(sample.ideal_us));
    }
  }
}

/// service.* metrics from a pass's replies.
void report_service(const ServePass& pass, Outcome& out) {
  std::vector<double> queue;
  std::vector<double> server_map;
  std::vector<double> transport;
  std::vector<double> fresh;
  std::vector<double> repeat;
  long long warm_hits = 0;
  long long nets = 0;
  long long rejected = 0;
  for (const ServeSample& s : pass.samples) {
    if (s.code == "overloaded") ++rejected;
    if (!s.ok) continue;
    queue.push_back(s.queue_ms);
    server_map.push_back(s.map_ms);
    transport.push_back(s.round_trip_ms - s.queue_ms - s.map_ms);
    if (s.kind == ActionKind::Fresh) fresh.push_back(s.round_trip_ms);
    if (s.kind == ActionKind::Repeat) repeat.push_back(s.round_trip_ms);
    warm_hits += s.warm_hits;
    nets += s.warm_hits + s.nets_rerouted;
  }
  const auto n = static_cast<long long>(queue.size());
  out.metrics.push_back({"service.queue_ms_p50", median(queue), "ms", n});
  out.metrics.push_back(
      {"service.server_map_ms_p50", median(server_map), "ms", n});
  out.metrics.push_back(
      {"service.transport_ms_p50", median(transport), "ms", n});
  const double repeat_p50 = median(repeat);
  out.metrics.push_back(
      {"service.repeat_speedup",
       repeat_p50 > 0.0 ? median(fresh) / repeat_p50 : 0.0, "ratio",
       static_cast<long long>(repeat.size())});
  out.metrics.push_back({"service.warm_hit_frac",
                         nets > 0 ? static_cast<double>(warm_hits) /
                                        static_cast<double>(nets)
                                  : 0.0,
                         "ratio", nets});
  out.metrics.push_back(
      {"service.rejected", static_cast<double>(rejected), "count", 0});
}

// --------------------------------------------------------------- set-ups ---

struct PaperSetup {
  std::vector<BenchJob> jobs;
  std::vector<qspr::Program> programs;
  std::unique_ptr<qspr::Fabric> fabric;
  std::unique_ptr<qspr::MappingEngine> engine;
};

PaperSetup setup_paper(const Context& context) {
  PaperSetup setup;
  setup.jobs = paper_jobs();
  for (const BenchJob& job : setup.jobs) {
    setup.programs.push_back(qspr::parse_qasm(job.qasm, job.program_id));
  }
  setup.fabric = std::make_unique<qspr::Fabric>(qspr::make_paper_fabric());
  setup.engine = std::make_unique<qspr::MappingEngine>(context.nproc);
  // Warm-up map of the smallest encoder: lazy initialisation is paid here,
  // before timing.
  (void)setup.engine->map(setup.programs.front(), *setup.fabric,
                          setup.jobs.front().options);
  return setup;
}

struct BatchSetup {
  std::vector<BenchJob> corpus;  // one per record, in manifest order
  std::vector<qspr::BatchJob> manifest;
  std::string small_fabric_path;
};

std::filesystem::path batch_dir(const Context& context) {
  return std::filesystem::path(context.work_dir) / "batch";
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream output(path);
  output << text;
  if (!output) throw qspr::Error("cannot write " + path.string());
}

/// Writes the small fabric drawing and every pool variant as a QASM file,
/// once per run and outside the timed set-ups: file-system writeback stalls
/// would otherwise set the run-to-run spread of setup_s.
void write_batch_files(const Context& context) {
  const std::filesystem::path dir = batch_dir(context);
  std::filesystem::create_directories(dir);
  write_file(dir / "small.fabric", small_fabric_text());
  for (const BatchSlot& slot : batch_slots()) {
    for (const PoolProgram& program : slot.variants) {
      write_file(dir / (program.id + ".qasm"), program.qasm);
    }
  }
}

/// The seeded corpus: one variant per slot, in slot order (so every corpus
/// has the same sizes in the same order), read from the files
/// write_batch_files() wrote.
BatchSetup setup_batch(const Context& context) {
  BatchSetup setup;
  const std::filesystem::path dir = batch_dir(context);
  setup.small_fabric_path = (dir / "small.fabric").string();
  const std::vector<BatchSlot> slots = batch_slots();
  qspr::Rng rng(context.seed);
  for (const BatchSlot& slot : slots) {
    const PoolProgram& program = slot.variants[rng.uniform_index(2)];
    BenchJob job =
        make_job(program.id, program.qasm, slot.fabric, slot.options);
    const std::string path = (dir / (program.id + ".qasm")).string();
    qspr::BatchJob record;
    record.name = job.key;
    record.qasm_path = path;
    record.fabric_spec =
        slot.fabric == kPaperFabric ? "paper" : setup.small_fabric_path;
    record.options = slot.options;
    setup.manifest.push_back(std::move(record));
    setup.corpus.push_back(std::move(job));
  }
  // Warm-up batch of two fixed programs, one per fabric, before timing.
  std::vector<qspr::Program> programs;
  std::vector<qspr::BatchJob> warm_up(2);
  for (std::size_t i = 0; i < warm_up.size(); ++i) {
    programs.push_back(qspr::parse_qasm(slots[i].variants[0].qasm));
  }
  for (std::size_t i = 0; i < warm_up.size(); ++i) {
    warm_up[i].name = slots[i].variants[0].id;
    warm_up[i].program = &programs[i];
    warm_up[i].fabric_spec =
        slots[i].fabric == kPaperFabric ? "paper" : setup.small_fabric_path;
    warm_up[i].options = slots[i].options;
  }
  qspr::MappingEngine engine(context.nproc);
  (void)qspr::BatchMapper(engine).run(warm_up);
  return setup;
}

struct ServeSetup {
  ServeTraffic traffic;
  std::map<std::string, BenchJob> jobs_by_key;  // every job a pass can map
};

ServeSetup setup_serve() {
  ServeSetup setup;
  for (const PoolProgram& program : serve_fresh_pool()) {
    setup.traffic.jobs.push_back(
        make_job(program.id, program.qasm, kPaperFabric, mc_options()));
    setup.traffic.fabric_specs.emplace_back("paper");
  }
  setup.traffic.scripts = serve_session_pool();
  setup.traffic.session_options = mc_options();
  for (const BenchJob& job : setup.traffic.jobs) {
    setup.jobs_by_key.emplace(job.key, job);
  }
  for (const SessionScript& script : setup.traffic.scripts) {
    for (std::size_t edits = 0; edits <= script.appends.size(); ++edits) {
      BenchJob job = make_job(script.step_id(edits), script.qasm_after(edits),
                              kPaperFabric, mc_options());
      setup.jobs_by_key.emplace(job.key, std::move(job));
    }
  }
  // Warm-up: start a server and map one fixed pool program, before timing.
  (void)run_serve_pass({{Action{ActionKind::Fresh, 0}}}, setup.traffic);
  return setup;
}

/// One pass of serve_sessions traffic. Each client performs a shuffled,
/// fixed mix of kFreshActions fresh maps, kRepeatActions exact repeats of one
/// of its own earlier fresh maps, and kSessionActions session episodes of
/// three maps each: half the maps are fresh, a quarter each repeats and
/// session maps, in every pass. A client's first action is always fresh.
/// Fresh programs and session scripts are drawn without replacement within
/// a pass.
std::vector<std::vector<Action>> plan_serve_pass(const ServeTraffic& traffic,
                                                 qspr::Rng& rng) {
  const std::vector<std::size_t> fresh = permutation(traffic.jobs.size(), rng);
  const std::vector<std::size_t> scripts =
      permutation(traffic.scripts.size(), rng);
  std::size_t next_fresh = 0;
  std::size_t next_script = 0;
  std::vector<ActionKind> mix;
  mix.insert(mix.end(), kFreshActions, ActionKind::Fresh);
  mix.insert(mix.end(), kRepeatActions, ActionKind::Repeat);
  mix.insert(mix.end(), kSessionActions, ActionKind::Session);
  std::vector<std::vector<Action>> plan(kServeClients);
  for (std::vector<Action>& actions : plan) {
    std::vector<ActionKind> kinds;
    for (const std::size_t i : permutation(mix.size(), rng)) {
      kinds.push_back(mix[i]);
    }
    std::swap(kinds.front(),
              *std::find(kinds.begin(), kinds.end(), ActionKind::Fresh));
    std::vector<std::size_t> sent;
    for (const ActionKind kind : kinds) {
      switch (kind) {
        case ActionKind::Fresh:
          sent.push_back(fresh[next_fresh++ % fresh.size()]);
          actions.push_back({kind, sent.back()});
          break;
        case ActionKind::Repeat:
          actions.push_back({kind, sent[rng.uniform_index(sent.size())]});
          break;
        case ActionKind::Session:
          actions.push_back({kind, scripts[next_script++ % scripts.size()]});
          break;
      }
    }
  }
  return plan;
}

void note_traffic_shares(const std::vector<ServeSample>& samples,
                         long long session_requests, Outcome& out) {
  long long counts[3] = {0, 0, 0};
  for (const ServeSample& s : samples) ++counts[static_cast<int>(s.kind)];
  const double maps = static_cast<double>(samples.size());
  if (maps == 0.0) return;
  out.notes.push_back(
      "traffic: " + std::to_string(samples.size()) + " map requests — fresh " +
      qspr::format_fixed(100.0 * counts[0] / maps, 1) + "%, exact repeats " +
      qspr::format_fixed(100.0 * counts[1] / maps, 1) + "%, session maps " +
      qspr::format_fixed(100.0 * counts[2] / maps, 1) + "% (of which edits " +
      qspr::format_fixed(100.0 * counts[2] * 2.0 / 3.0 / maps, 1) +
      "% of all maps); plus " + std::to_string(session_requests) +
      " session_open/close requests");
}

// ------------------------------------------------------ untraced workloads ---

/// Runs the workload's set-up kSetupReps times, recording each duration,
/// and keeps the last one. Earlier set-ups are torn down outside the timing.
template <typename Make>
auto timed_setups(EndToEnd& e2e, const Make& make) {
  decltype(make()) setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const qspr::Stopwatch watch;
    auto fresh = make();
    e2e.setup_s.push_back(watch.elapsed_seconds());
    setup = std::move(fresh);
  }
  return setup;
}

Outcome run_paper(const Context& context) {
  Outcome out;
  EndToEnd e2e;
  PaperSetup setup = timed_setups(e2e, [&] { return setup_paper(context); });
  qspr::Rng rng(context.seed);
  const double cpu_start = process_cpu_ms();
  const qspr::Stopwatch wall;
  do {
    const qspr::Stopwatch pass;
    for (const std::size_t i : permutation(setup.jobs.size(), rng)) {
      const BenchJob& job = setup.jobs[i];
      ++out.attempted;
      const qspr::Stopwatch lap;
      qspr::MapResult result;
      try {
        result = setup.engine->map(setup.programs[i], *setup.fabric,
                                   job.options);
      } catch (const std::exception& e) {
        out.fail(job.key + ": " + e.what());
        continue;
      }
      const double lap_ms = lap.elapsed_ms();
      const std::string mismatch = context.expected->check(job.key, result);
      if (!mismatch.empty()) {
        out.fail(mismatch);
        continue;
      }
      e2e.add_map(lap_ms);
      e2e.record_ratio(job.key, static_cast<double>(result.latency),
                       static_cast<double>(result.ideal_latency));
    }
    e2e.end_pass(pass.elapsed_ms());
  } while (wall.elapsed_seconds() < context.seconds);
  e2e.cpu_ms = process_cpu_ms() - cpu_start;
  out.notes.push_back("6 paper encoders, MVFB m=10 seed 1, MappingEngine(" +
                      std::to_string(context.nproc) + "), " +
                      std::to_string(e2e.pass_rates.size()) + " passes");
  report_end_to_end(e2e, out);
  return out;
}

Outcome run_batch(const Context& context) {
  Outcome out;
  EndToEnd e2e;
  write_batch_files(context);
  BatchSetup setup = timed_setups(e2e, [&] { return setup_batch(context); });
  long long builds = 0;
  long long hits = 0;
  const double cpu_start = process_cpu_ms();
  const qspr::Stopwatch wall;
  do {
    // A fresh engine per pass: no state carries from one pass to the next,
    // so no request of the workload ever repeats.
    const qspr::Stopwatch pass;
    qspr::MappingEngine engine(context.nproc);
    qspr::BatchMapper mapper(engine);
    const qspr::BatchResult batch = mapper.run(setup.manifest);
    const double pass_ms = pass.elapsed_ms();
    builds += batch.summary.artifact_builds;
    hits += batch.summary.artifact_hits;
    for (const qspr::BatchJobRecord& record : batch.records) {
      ++out.attempted;
      if (!record.ok) {
        out.fail(record.name + ": " + record.error);
        continue;
      }
      const std::string mismatch =
          context.expected->check(record.name, record.result);
      if (!mismatch.empty()) {
        out.fail(mismatch);
        continue;
      }
      e2e.add_map(record.result.cpu_ms);
      e2e.record_ratio(record.name, static_cast<double>(record.result.latency),
                       static_cast<double>(record.result.ideal_latency));
    }
    e2e.end_pass(pass_ms);
  } while (wall.elapsed_seconds() < context.seconds);
  e2e.cpu_ms = process_cpu_ms() - cpu_start;
  out.notes.push_back(
      std::to_string(setup.manifest.size()) +
      "-record corpus (cyclic/random/QFT ladders, MC m=8, paper and small "
      "fabric alternating, diagnostic every 4th), " +
      std::to_string(e2e.pass_rates.size()) + " passes, artifact builds " +
      std::to_string(builds) + " hits " + std::to_string(hits));
  report_end_to_end(e2e, out);
  return out;
}

Outcome run_serve(const Context& context) {
  Outcome out;
  EndToEnd e2e;
  ServeSetup setup = timed_setups(e2e, [&] { return setup_serve(); });
  qspr::Rng rng(context.seed);
  std::vector<ServeSample> all;
  long long session_requests = 0;
  const double cpu_start = process_cpu_ms();
  const qspr::Stopwatch wall;
  do {
    const ServePass pass =
        run_serve_pass(plan_serve_pass(setup.traffic, rng), setup.traffic);
    check_serve_pass(pass, context, out, &e2e);
    e2e.end_pass(pass.wall_ms);
    all.insert(all.end(), pass.samples.begin(), pass.samples.end());
    session_requests += pass.session_requests;
  } while (wall.elapsed_seconds() < context.seconds);
  e2e.cpu_ms = process_cpu_ms() - cpu_start;
  out.notes.push_back(
      "MappingServer(" + std::to_string(kServeMapperThreads) +
      " mapper threads, " + std::to_string(kServeWorkers) + " workers), " +
      std::to_string(kServeClients) + " closed-loop clients x (" +
      std::to_string(kFreshActions) + " fresh, " +
      std::to_string(kRepeatActions) + " repeat, " +
      std::to_string(kSessionActions) + " session) actions per pass, " +
      std::to_string(e2e.pass_rates.size()) + " passes");
  note_traffic_shares(all, session_requests, out);
  report_end_to_end(e2e, out);
  return out;
}

// --------------------------------------------------------- traced workloads ---

/// Accumulates LayerSamples into the per-layer metrics.
struct LayerTotals {
  long long maps = 0;
  double parse_ms = 0, qidg_ms = 0, rank_ms = 0, artifacts_ms = 0;
  double trials_ms = 0, trial_cpu_ms = 0, parallel_denominator_ms = 0;
  long long runs = 0;
  /// Map wall time of the replica's pipeline and of MappingEngine::map on
  /// the same jobs (jobs without the negotiation diagnostic only: the engine
  /// runs it inside map(), the replica in its replay).
  double pipeline_ms = 0, engine_ms = 0;
  double sim_run_ms = 0;
  long long sim_moves = 0, sim_busy = 0, sim_nodes = 0;
  long long route_queries = 0;
  double route_query_ms = 0;
  double negotiate_ms = 0;
  long long negotiate_iterations = 0, negotiate_searches = 0,
            negotiate_nodes = 0;
  double decode_us = 0, encode_us = 0;
  long long artifact_builds = 0, artifact_hits = 0;

  void add(const LayerSample& s, int workers) {
    ++maps;
    parse_ms += s.parse_ms;
    qidg_ms += s.qidg_ms;
    rank_ms += s.rank_ms;
    artifacts_ms += s.artifacts_ms;
    trials_ms += s.trials_ms;
    trial_cpu_ms += s.trial_cpu_ms;
    parallel_denominator_ms += s.trials_ms * workers;
    runs += s.placement_runs;
    sim_run_ms += s.sim_run_ms;
    sim_moves += s.sim_moves;
    sim_busy += s.sim_busy_enqueues;
    sim_nodes += s.sim_nodes_settled;
    route_queries += s.route_queries;
    route_query_ms += s.route_query_ms;
    negotiate_ms += s.negotiate_ms;
    negotiate_iterations += s.negotiate_iterations;
    negotiate_searches += s.negotiate_searches;
    negotiate_nodes += s.negotiate_nodes_settled;
  }

  void report(Outcome& out) const {
    const auto per_map = [&](double v) { return mean(v, maps); };
    const auto per_map_count = [&](long long v) {
      return mean(static_cast<double>(v), maps);
    };
    auto& m = out.metrics;
    m.push_back({"placer.trials_ms", per_map(trials_ms), "ms", maps});
    m.push_back({"placer.runs", per_map_count(runs), "count", maps});
    m.push_back({"placer.parallel_eff",
                 parallel_denominator_ms > 0
                     ? trial_cpu_ms / parallel_denominator_ms
                     : 0.0,
                 "ratio", maps});
    m.push_back({"sim.run_ms", per_map(sim_run_ms), "ms", maps});
    m.push_back({"sim.nonroute_ms", per_map(sim_run_ms - route_query_ms), "ms",
                 maps});
    m.push_back({"sim.moves", per_map_count(sim_moves), "count", maps});
    m.push_back(
        {"sim.busy_enqueues", per_map_count(sim_busy), "count", maps});
    m.push_back(
        {"sim.nodes_settled", per_map_count(sim_nodes), "count", maps});
    m.push_back({"route.query_us", 1e3 * mean(route_query_ms, route_queries),
                 "us", route_queries});
    m.push_back({"route.queries_per_run", per_map_count(route_queries),
                 "count", maps});
    m.push_back({"route.negotiate_ms", per_map(negotiate_ms), "ms", maps});
    m.push_back({"route.negotiate_iterations",
                 per_map_count(negotiate_iterations), "count", maps});
    m.push_back({"route.negotiate_searches", per_map_count(negotiate_searches),
                 "count", maps});
    m.push_back({"route.negotiate_nodes_settled",
                 per_map_count(negotiate_nodes), "count", maps});
    m.push_back({"qasm.parse_ms", per_map(parse_ms), "ms", maps});
    m.push_back({"circuit.qidg_ms", per_map(qidg_ms), "ms", maps});
    m.push_back({"scheduler.rank_ms", per_map(rank_ms), "ms", maps});
    m.push_back({"fabric.artifacts_ms", per_map(artifacts_ms), "ms", maps});
    m.push_back({"fabric.artifact_builds",
                 static_cast<double>(artifact_builds), "count", 0});
    m.push_back({"fabric.artifact_hits", static_cast<double>(artifact_hits),
                 "count", 0});
    m.push_back({"service.decode_us", per_map(decode_us), "us", maps});
    m.push_back({"service.encode_us", per_map(encode_us), "us", maps});
    m.push_back({"trace.overhead_frac",
                 engine_ms > 0 ? pipeline_ms / engine_ms - 1.0 : 0.0, "ratio",
                 0});
  }
};

/// The job list one traced pass replicates, the fabric each job maps on,
/// and the worker count of the workload's engine.
struct TracedJobs {
  std::vector<BenchJob> jobs;
  std::vector<std::string> fabric_specs;  // server-side spec per job
  int workers = 1;
  /// True when the workload keeps one engine (and artifact cache) for the
  /// whole run; false when each pass starts from fresh caches.
  bool shared_engine = false;
};

/// Replicates every job once per pass until the time budget is spent (at
/// least one full pass, so every distinct program is validated): the
/// engine's own map() first (the fidelity reference), then the traced
/// replica and its replay.
void trace_layers(const TracedJobs& traced, const Context& context,
                  double budget_s, Outcome& out) {
  std::map<std::string, std::unique_ptr<qspr::Fabric>> fabrics;
  fabrics[kPaperFabric] =
      std::make_unique<qspr::Fabric>(qspr::make_paper_fabric());
  fabrics[kSmallFabric] = std::make_unique<qspr::Fabric>(
      qspr::parse_fabric(small_fabric_text(), kSmallFabric));

  SpanLog log;
  LayerTotals totals;
  std::uint64_t map_id = 0;
  std::unique_ptr<qspr::MappingEngine> engine;
  std::unique_ptr<qspr::FabricArtifactCache> cache;
  const qspr::Stopwatch wall;
  do {
    if (!engine || !traced.shared_engine) {
      if (cache) {
        totals.artifact_builds += cache->stats().builds;
        totals.artifact_hits += cache->stats().hits;
      }
      engine = std::make_unique<qspr::MappingEngine>(traced.workers);
      cache = std::make_unique<qspr::FabricArtifactCache>();
    }
    for (std::size_t j = 0; j < traced.jobs.size(); ++j) {
      const BenchJob& job = traced.jobs[j];
      const qspr::Fabric& fabric = *fabrics.at(job.fabric);
      ++out.attempted;
      ++map_id;
      qspr::MapResult reference;
      double engine_ms = 0.0;
      const auto run_engine = [&] {
        const qspr::Stopwatch watch;
        const qspr::Program program =
            qspr::parse_qasm(job.qasm, job.program_id);
        reference = engine->map(program, fabric, job.options);
        engine_ms = watch.elapsed_ms();
      };
      // Alternate which side maps first, so neither gains from the other
      // having warmed the caches.
      if (map_id % 2 == 0) run_engine();
      const ReplicaResult replica =
          replicate_map(job, fabric, *cache, engine->executor(), log, map_id);
      if (map_id % 2 == 1) run_engine();
      if (!job.options.negotiation_report) {
        totals.engine_ms += engine_ms;
        totals.pipeline_ms += replica.sample.pipeline_ms;
      }
      const std::string diverged = replica_mismatch(replica, reference);
      if (!diverged.empty()) {
        throw qspr::Error("layer replica diverged from MappingEngine::map on " +
                          job.key + ": " + diverged);
      }
      std::string mismatch = context.expected->check(job.key, reference);
      for (const std::string& violation : replica.sample.trace_violations) {
        mismatch += (mismatch.empty() ? "" : "; ") + job.key +
                    ": trace violation: " + violation;
      }
      if (!mismatch.empty()) {
        out.fail(mismatch);
        continue;
      }
      totals.add(replica.sample, traced.workers);

      const int codec = log.open("codec", map_id);
      const std::string line =
          map_line("t" + std::to_string(map_id), job, traced.fabric_specs[j]);
      int span = log.open("service.decode", map_id, codec);
      const qspr::ServeRequest request =
          qspr::parse_serve_request(line, qspr::CodecLimits{}, mc_options());
      totals.decode_us += 1e3 * log.close(span);
      span = log.open("service.encode", map_id, codec);
      const std::string reply =
          qspr::serve_result_json(request.id, replica.result, 0.0, 0.0);
      totals.encode_us += 1e3 * log.close(span);
      log.close(codec);
      if (qspr::parse_json(reply).string_or("result_fp", "") !=
          qspr::map_result_fingerprint(replica.result)) {
        out.fail(job.key + ": encoded reply lost the result fingerprint");
      }
    }
  } while (wall.elapsed_seconds() < budget_s);
  totals.artifact_builds += cache->stats().builds;
  totals.artifact_hits += cache->stats().hits;
  totals.report(out);

  const std::string spans_path = (std::filesystem::path(context.work_dir) /
                                  ("spans_" + std::to_string(context.seed) +
                                   ".json"))
                                     .string();
  log.write_json(spans_path);
  out.notes.push_back("span log: " + spans_path + " (" +
                      std::to_string(log.spans().size()) + " spans, " +
                      std::to_string(totals.maps) +
                      " replicated maps, each bit-identical to "
                      "MappingEngine::map)");
  for (const auto& [name, entry] : log.totals()) {
    out.notes.push_back("  " + name + ": n=" + std::to_string(entry.count) +
                        " total " + qspr::format_fixed(entry.total_ms, 2) +
                        " ms, self " + qspr::format_fixed(entry.self_ms, 2) +
                        " ms");
  }
}

/// service.* numbers for a workload that does not go through the server
/// itself: one client sends the workload's first six distinct jobs fresh,
/// then each again as an exact repeat, then one session episode.
ServePass service_probe(const TracedJobs& traced) {
  ServeTraffic traffic;
  std::set<std::string> seen;
  for (std::size_t j = 0; j < traced.jobs.size() && traffic.jobs.size() < 6;
       ++j) {
    if (!seen.insert(traced.jobs[j].key).second) continue;
    traffic.jobs.push_back(traced.jobs[j]);
    traffic.fabric_specs.push_back(traced.fabric_specs[j]);
  }
  traffic.scripts = {serve_session_pool().front()};
  traffic.session_options = mc_options();
  std::vector<Action> actions;
  for (const ActionKind kind : {ActionKind::Fresh, ActionKind::Repeat}) {
    for (std::size_t j = 0; j < traffic.jobs.size(); ++j) {
      actions.push_back({kind, j});
    }
  }
  actions.push_back({ActionKind::Session, 0});
  return run_serve_pass({actions}, traffic);
}

Outcome run_traced(const std::string& workload, const Context& context) {
  Outcome out;
  TracedJobs traced;
  ServePass service;
  // The service phase runs first; the replica phase then takes --seconds.
  if (workload == "paper_mvfb") {
    PaperSetup setup = setup_paper(context);
    qspr::Rng rng(context.seed);
    for (const std::size_t i : permutation(setup.jobs.size(), rng)) {
      traced.jobs.push_back(setup.jobs[i]);
      traced.fabric_specs.emplace_back("paper");
    }
    traced.workers = context.nproc;
    traced.shared_engine = true;
    service = service_probe(traced);
  } else if (workload == "batch_mixed") {
    write_batch_files(context);
    const BatchSetup setup = setup_batch(context);
    traced.jobs = setup.corpus;
    for (const qspr::BatchJob& record : setup.manifest) {
      traced.fabric_specs.push_back(record.fabric_spec);
    }
    traced.workers = context.nproc;
    service = service_probe(traced);
  } else {
    const ServeSetup setup = setup_serve();
    qspr::Rng rng(context.seed);
    service = run_serve_pass(plan_serve_pass(setup.traffic, rng),
                             setup.traffic);
    note_traffic_shares(service.samples, service.session_requests, out);
    std::set<std::string> seen;
    for (const ServeSample& sample : service.samples) {
      if (!seen.insert(sample.key).second) continue;
      traced.jobs.push_back(setup.jobs_by_key.at(sample.key));
      traced.fabric_specs.emplace_back("paper");
    }
    traced.workers = kServeWorkers;
  }
  check_serve_pass(service, context, out, nullptr);
  report_service(service, out);
  trace_layers(traced, context, context.seconds, out);
  return out;
}

}  // namespace

Outcome run_workload(const std::string& name, const Context& context,
                     bool trace) {
  if (std::find(workload_names().begin(), workload_names().end(), name) ==
      workload_names().end()) {
    throw qspr::Error("unknown workload: " + name);
  }
  if (trace) return run_traced(name, context);
  if (name == "paper_mvfb") return run_paper(context);
  if (name == "batch_mixed") return run_batch(context);
  return run_serve(context);
}

}  // namespace mapbench
