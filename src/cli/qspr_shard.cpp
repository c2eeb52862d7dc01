// qspr_shard — crash-tolerant sharded front-end over N qspr_serve workers.
//
//   qspr_shard --shards 2 --port 7420 --mapper-threads 1
//   qspr_shard --shards 4 --port 0 --port-file /tmp/shard.port   # CI
//
// Clients speak the exact qspr_serve NDJSON protocol to the supervisor's
// port; requests route to workers by fabric fingerprint (cache affinity),
// worker crashes and wedges are detected (waitpid + queue-bypassing health
// probes), workers restart under exponential backoff, session frames route
// to the shard their session name carries, and in-flight requests
// transparently re-dispatch — the mapping is pure, so a re-run is
// bit-identical. SIGTERM drains the whole tree: workers answer their
// in-flight work and exit 0, then the supervisor exits 0. See docs/serve.md
// for the failure-semantics table.
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "service/shard_supervisor.hpp"

namespace {

using namespace qspr;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --host <addr>           bind address (default 127.0.0.1)\n"
      << "  --port <n>              TCP port; 0 = kernel-assigned (default "
         "0)\n"
      << "  --port-file <file>      write the bound port there once "
         "listening\n"
      << "  --shards <n>            worker processes (default 2)\n"
      << "  --worker-bin <path>     qspr_serve binary (default: qspr_serve\n"
      << "                          next to this executable)\n"
      << "  --port-file-dir <dir>   where worker port files go (default "
         "/tmp)\n"
      << "  --health-interval-ms <n>  probe period per worker (default 500)\n"
      << "  --health-timeout-ms <n> unanswered probe = wedged (default "
         "2000)\n"
      << "  --spawn-deadline-ms <n> worker bring-up budget (default 10000)\n"
      << "  --backoff-base-ms <n>   restart backoff base (default 50)\n"
      << "  --backoff-cap-ms <n>    restart backoff cap (default 2000)\n"
      << "  --max-redispatch <n>    worker deaths one request may survive\n"
      << "                          before shard_down (default 2)\n"
      << "  --drain-ms <n>          drain budget before remaining work is\n"
      << "                          cancelled (default 5000)\n"
      << "  --max-connections <n>   concurrent clients (default 64)\n"
      << "  --jobs / --mapper-threads / --max-queue / --m / --seed /\n"
      << "  --placer / --mapper / --fabric / --retry-after-ms <v>\n"
      << "                          forwarded to every worker\n"
      << "  --quiet                 suppress supervision notes on stderr\n"
      << "exit status: 0 clean drain (SIGTERM/SIGINT), 2 usage/setup error\n";
  return 2;
}

/// Default worker binary: qspr_serve in this executable's own directory —
/// the layout both the build tree and the install tree use.
std::string sibling_qspr_serve() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (n <= 0) return "qspr_serve";
  buffer[n] = '\0';
  std::string path(buffer);
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return "qspr_serve";
  return path.substr(0, slash + 1) + "qspr_serve";
}

ShardSupervisor* g_supervisor = nullptr;

extern "C" void handle_drain_signal(int) {
  if (g_supervisor != nullptr) g_supervisor->request_drain();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ShardSupervisorOptions options;
    options.quiet = false;
    std::string port_file;

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw Error("missing value for " + arg);
        return argv[++i];
      };
      const auto next_int = [&](int min, int max) {
        return parse_int_flag(arg, next(), min, max);
      };
      if (arg == "--host") {
        options.host = next();
      } else if (arg == "--port") {
        options.port = next_int(0, 65535);
      } else if (arg == "--port-file") {
        port_file = next();
      } else if (arg == "--shards") {
        options.shard_count = next_int(1, 64);
      } else if (arg == "--worker-bin") {
        options.worker_binary = next();
      } else if (arg == "--port-file-dir") {
        options.port_file_dir = next();
      } else if (arg == "--health-interval-ms") {
        options.health_interval_ms = next_int(1, 3'600'000);
      } else if (arg == "--health-timeout-ms") {
        options.health_timeout_ms = next_int(1, 3'600'000);
      } else if (arg == "--spawn-deadline-ms") {
        options.spawn_deadline_ms = next_int(100, 3'600'000);
      } else if (arg == "--backoff-base-ms") {
        options.restart_backoff.base_ms = next_int(0, 3'600'000);
      } else if (arg == "--backoff-cap-ms") {
        options.restart_backoff.cap_ms = next_int(0, 3'600'000);
      } else if (arg == "--max-redispatch") {
        options.max_redispatch = next_int(0, 100);
      } else if (arg == "--drain-ms") {
        options.drain_deadline_ms = next_int(0, 3'600'000);
      } else if (arg == "--max-connections") {
        options.max_connections = next_int(1, 10'000);
      } else if (arg == "--jobs" || arg == "--mapper-threads" ||
                 arg == "--max-queue" || arg == "--m" || arg == "--seed" ||
                 arg == "--placer" || arg == "--mapper" || arg == "--fabric" ||
                 arg == "--retry-after-ms") {
        options.worker_args.push_back(arg);
        options.worker_args.push_back(next());
      } else if (arg == "--quiet") {
        options.quiet = true;
      } else if (arg == "--help" || arg == "-h") {
        return usage(argv[0]);
      } else {
        std::cerr << "unknown option: " << arg << "\n";
        return usage(argv[0]);
      }
    }
    if (options.worker_binary.empty()) {
      options.worker_binary = sibling_qspr_serve();
    }
    if (options.restart_backoff.cap_ms < options.restart_backoff.base_ms) {
      throw Error("--backoff-cap-ms must be >= --backoff-base-ms");
    }

    const bool quiet = options.quiet;
    ShardSupervisor supervisor(std::move(options));
    supervisor.start();
    g_supervisor = &supervisor;
    std::signal(SIGTERM, handle_drain_signal);
    std::signal(SIGINT, handle_drain_signal);

    if (!port_file.empty()) {
      std::ofstream out(port_file);
      if (!out) throw Error("cannot write port file: " + port_file);
      out << supervisor.port() << "\n";
    }
    if (!quiet) {
      std::cerr << "qspr_shard listening on port " << supervisor.port()
                << "\n";
    }

    const int code = supervisor.serve();
    g_supervisor = nullptr;
    return code;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
