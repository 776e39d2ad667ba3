// Worker of the end-to-end `paper_small` evaluation benchmark
// (README.md). run.py builds this program and runs it once per step:
//
//   e2e_bench reference --spec S --seed N --out DIR
//       Set-up: the reference interpreter's eval (engine interp, 4
//       threads, fresh store DIR/store); its report.json and
//       per_instruction.csv are what every measured eval must match.
//   e2e_bench prefill --spec S --objects DIR
//       Set-up of warm-objects-1t: compiles every kernel into the native
//       object cache DIR.
//   e2e_bench calibrate --workload W|set-up --cal-rounds R
//       Times R rounds of the host-speed calibration kernel on the
//       thread count of workload W (or of the set-up) and prints one
//       JSON line.
//   e2e_bench eval --workload W --spec S --seed N --out DIR --store DIR
//                  --ref DIR [--objects DIR] [--seconds X]
//       One measured eval (eval::run_spec then eval::write_reports);
//       with --seconds, repeats it in-process until X seconds passed
//       (only for rerun-cached, where no program is compiled). Prints
//       one JSON line per eval.
//   e2e_bench trace <eval flags> --trace-out FILE --cc-log FILE
//       The traced run: the same eval replayed through the layers'
//       public functions with a span around each call, plus standalone
//       timings of the calls that happen inside another layer's
//       function. Prints one JSON line of per-layer metrics and writes
//       the spans to FILE as Chrome trace-event JSON.
//
// Cold evals run one per process: NativeProgram::build keeps compiled
// programs alive in a process-wide cache, so an in-process repeat of a
// native eval would be warm.
#include <dirent.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baselines/epvf.h"
#include "baselines/pvf.h"
#include "analysis/bit_facts.h"
#include "core/trident.h"
#include "eval/report.h"
#include "eval/runner.h"
#include "eval/spec.h"
#include "eval/store.h"
#include "fi/campaign.h"
#include "fi/trial_runner.h"
#include "interp/native.h"
#include "interp/threaded.h"
#include "obs/metrics.h"
#include "profiler/profiler.h"
#include "support/json.h"
#include "support/thread_pool.h"
#include "tracer.h"
#include "workloads/workloads.h"

namespace {

using namespace trident;
namespace json = support::json;
using e2ebench::ScopedSpan;
using e2ebench::Span;
using e2ebench::Tracer;

// ---- Specs and workloads ----------------------------------------------

/// The spec run by the benchmark, built in code. "paper_small" has the
/// settings of examples/specs/paper_small.json (seed 1 reproduces its
/// reports byte for byte); "ci_smoke" those of examples/specs/
/// ci_smoke.json, for the benchmark's own smoke test.
eval::ExperimentSpec make_spec(const std::string& name, uint64_t seed) {
  eval::ExperimentSpec spec;
  spec.name = name;
  spec.seeds = {seed};
  if (name == "paper_small") {
    spec.workloads = {"*"};
    spec.models = {"full", "fs_fc", "fs", "trident_bits", "pvf", "epvf"};
    spec.fi.trials = 1000;
    spec.per_inst.top_n = 10;
    spec.per_inst.trials = 100;
  } else if (name == "ci_smoke") {
    spec.workloads = {"pathfinder", "hotspot"};
    spec.models = {"full", "fs_fc", "fs", "trident_bits", "pvf"};
    spec.fi.trials = 60;
    spec.per_inst.top_n = 3;
    spec.per_inst.trials = 20;
  } else {
    throw std::runtime_error("unknown spec '" + name +
                             "' (paper_small, ci_smoke)");
  }
  return spec;
}

/// Worker threads of the set-up steps (reference eval, prefill).
constexpr uint32_t kSetupThreads = 4;

/// Store state a workload's eval must start from and end in.
enum class Warmth {
  Cold,         // empty store and empty object cache; every cell computed
  WarmObjects,  // empty store, object cache holding every kernel
  Cached,       // store holding every cell; nothing computed
};

struct BenchWorkload {
  std::string name;
  interp::EngineKind engine;
  uint32_t threads;
  Warmth warmth;
};

const std::vector<BenchWorkload>& bench_workloads() {
  static const std::vector<BenchWorkload> all = {
      {"cold-native", interp::EngineKind::Native, 4, Warmth::Cold},
      {"warm-objects", interp::EngineKind::Native, 4, Warmth::WarmObjects},
      {"warm-objects-1t", interp::EngineKind::Native, 1,
       Warmth::WarmObjects},
      {"cold-interp", interp::EngineKind::Interp, 4, Warmth::Cold},
      {"rerun-cached", interp::EngineKind::Interp, 4, Warmth::Cached},
  };
  return all;
}

const BenchWorkload& find_bench_workload(const std::string& name) {
  for (const auto& w : bench_workloads()) {
    if (w.name == name) return w;
  }
  throw std::runtime_error("unknown workload '" + name + "'");
}

// ---- Small helpers ----------------------------------------------------

struct Args {
  std::string mode;
  std::map<std::string, std::string> flags;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  std::string need(const std::string& key) const {
    const auto it = flags.find(key);
    if (it == flags.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::runtime_error("usage: e2e_bench <mode> [--flag value]...");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("bad argument '" + flag + "'");
    }
    args.flags[flag.substr(2)] = argv[i + 1];
  }
  return args;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename F>
double time_s(F&& f) {
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Entries of `dir` other than . and .. (0 when it does not exist).
uint64_t dir_entries(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  uint64_t n = 0;
  while (const dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") ++n;
  }
  closedir(d);
  return n;
}

/// Lines in `path` (0 when it does not exist): the counting compiler
/// wrapper appends one per host-compiler run.
uint64_t count_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return static_cast<uint64_t>(std::count(std::istreambuf_iterator<char>(in),
                                          std::istreambuf_iterator<char>(),
                                          '\n'));
}

double cpu_seconds() {
  double total = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    total += ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
             ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  }
  return total;
}

// ---- Host-speed calibration -------------------------------------------
//
// A fixed amount of work that uses none of the library, timed in a
// process of its own between the measured evals and around the set-up,
// so that run.py can report times in seconds of a reference host
// (README.md, "Host-speed calibration"). The host is shared: its speed
// drifts by tens of percent between runs, and that drift moves the
// calibration and the eval alike.

/// Keys of each lane's hash table and ordered map: together about 3 MiB,
/// past a core's L2, as the eval's working set is.
constexpr uint64_t kCalHashKeys = 1u << 15;
constexpr uint64_t kCalMapKeys = 1u << 13;
/// Steps of one calibration unit (about 2.5 ms).
constexpr uint64_t kCalSteps = 4096;
/// Units of a calibration round per thread.
constexpr uint64_t kCalUnitsPerThread = 16;

/// One thread's calibration state, filled to its steady size before
/// timing, so that every unit does the same kind of work.
struct CalLane {
  std::unordered_map<uint64_t, uint64_t> counts;
  std::map<uint64_t, std::string> names;
  uint64_t x;
  uint64_t sink = 0;

  explicit CalLane(uint32_t lane) : x(0x9e3779b97f4a7c15ull + lane) {
    for (uint64_t k = 0; k < kCalHashKeys; ++k) counts[k] = k;
    for (uint64_t k = 0; k < kCalMapKeys; ++k) names[k] = std::string(32, 'a');
  }

  uint64_t next() {
    x ^= x << 13, x ^= x >> 7, x ^= x << 17;
    return x;
  }

  /// One unit: hash-table updates, string churn in an ordered map and
  /// small sorts, the mix of a C++ program that allocates as it goes.
  void unit() {
    for (uint64_t i = 0; i < kCalSteps; ++i) {
      const uint64_t r = next();
      counts[r % kCalHashKeys] += i;
      if (i % 4 == 0) {
        names[r % kCalMapKeys] = std::string(16 + r % 48, 'a' + i % 26);
      }
      if (i % 64 == 0) {
        std::vector<uint32_t> v(256);
        for (auto& e : v) e = static_cast<uint32_t>(next());
        std::sort(v.begin(), v.end());
        sink += v[128];
      }
      const auto it = names.lower_bound(r % kCalMapKeys);
      if (it != names.end()) sink += it->second.size();
    }
  }
};

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

struct Calibration {
  uint32_t threads = 0;
  double wall_s = 0;  // wall seconds of a round
  double cpu_s = 0;   // CPU seconds of a round, summed over the threads
};

/// Where the calibration's results go, so that its work is not optimized
/// away.
volatile uint64_t cal_sink = 0;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Runs `rounds` rounds on `threads` threads (the thread count of the
/// eval it stands beside). A round is kCalUnitsPerThread units per
/// thread, which the threads take from a shared counter, as the eval's
/// pool takes its tasks: a thread that loses its core for a while costs
/// the round its share, not the whole wait. Reports the median round,
/// so that a stall of the host during a few rounds does not set the
/// figure.
Calibration calibrate(uint32_t threads, uint64_t rounds) {
  std::vector<CalLane> lanes;
  for (uint32_t lane = 0; lane < threads; ++lane) lanes.emplace_back(lane);
  const uint64_t round_units = kCalUnitsPerThread * threads;
  std::atomic<uint64_t> taken{0};
  // Each round: the main thread and the lanes meet at `start`, the lanes
  // run the round's units, and all meet again at `done`.
  std::barrier start(threads + 1), done(threads + 1);
  std::vector<std::vector<double>> cpu(threads, std::vector<double>(rounds));
  std::vector<std::thread> pool;
  for (uint32_t lane = 0; lane < threads; ++lane) {
    pool.emplace_back([&, lane] {
      for (uint64_t round = 0; round < rounds; ++round) {
        start.arrive_and_wait();
        const double c0 = thread_cpu_s();
        while (taken.fetch_add(1) < round_units) lanes[lane].unit();
        cpu[lane][round] = thread_cpu_s() - c0;
        done.arrive_and_wait();
      }
    });
  }
  std::vector<double> walls, cpus(rounds);
  for (uint64_t round = 0; round < rounds; ++round) {
    taken.store(0);
    walls.push_back(time_s([&] {
      start.arrive_and_wait();
      done.arrive_and_wait();
    }));
  }
  for (auto& th : pool) th.join();
  for (uint32_t lane = 0; lane < threads; ++lane) {
    cal_sink = cal_sink ^ lanes[lane].sink;
    for (uint64_t round = 0; round < rounds; ++round) {
      cpus[round] += cpu[lane][round];
    }
  }
  return {threads, median(walls), median(cpus)};
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Byte comparison of the two checked artifacts against the reference;
/// empty when both match.
std::string compare_reports(const std::string& out, const std::string& ref) {
  for (const char* file : {"report.json", "per_instruction.csv"}) {
    if (read_file(out + "/" + file) != read_file(ref + "/" + file)) {
      return std::string(file) + " differs from the reference";
    }
  }
  return "";
}

/// Where the native backend keeps compiled objects across processes:
/// the prefilled cache for warm-objects-1t, else <store>/native-cache,
/// as `trident eval --engine native` does.
std::string object_dir(const Args& args) {
  return args.get("objects", args.need("store") + "/native-cache");
}

/// Points the native object cache at this eval's directory (unset for
/// interp evals, which compile nothing).
void set_object_cache(const BenchWorkload& wl, const Args& args) {
  if (wl.engine == interp::EngineKind::Native) {
    setenv("TRIDENT_NATIVE_CACHE", object_dir(args).c_str(), 1);
  } else {
    unsetenv("TRIDENT_NATIVE_CACHE");
  }
}

// ---- Warmth checks ----------------------------------------------------

/// Checked before the eval: the directories are in the workload's state.
std::string check_before(const BenchWorkload& wl, const Args& args) {
  const uint64_t store_entries = dir_entries(args.need("store"));
  const uint64_t objects = dir_entries(object_dir(args));
  switch (wl.warmth) {
    case Warmth::Cold:
      if (store_entries != 0) return "cold eval over a non-empty store";
      if (objects != 0) return "cold eval over a non-empty object cache";
      break;
    case Warmth::WarmObjects:
      if (store_entries != 0) return "warm-objects eval over a non-empty store";
      if (objects == 0) return "warm-objects eval over an empty object cache";
      break;
    case Warmth::Cached:
      if (store_entries == 0) return "cached eval over an empty store";
      break;
  }
  return "";
}

/// Checked after the eval: it computed what its state says it must. A
/// warm run can never pass as a fast cold one.
std::string check_after(const BenchWorkload& wl,
                        const eval::EvalResults& results,
                        const obs::Registry& registry) {
  const uint64_t native_campaigns = registry.counter("engine.native");
  const uint64_t object_hits = registry.counter("engine.native.cache_hits");
  const auto all = results.cells_total;
  switch (wl.warmth) {
    case Warmth::Cold:
    case Warmth::WarmObjects:
      if (results.cells_computed != all || results.fi_trials_run == 0) {
        return "expected every cell computed, got " +
               std::to_string(results.cells_computed) + "/" +
               std::to_string(all);
      }
      break;
    case Warmth::Cached:
      if (results.cells_cached != all || results.fi_trials_run != 0) {
        return "expected every cell cached and 0 trials, got " +
               std::to_string(results.cells_cached) + "/" +
               std::to_string(all) + " cached, " +
               std::to_string(results.fi_trials_run) + " trials";
      }
      break;
  }
  if (wl.engine == interp::EngineKind::Interp) {
    if (native_campaigns != 0) return "interp eval ran native campaigns";
  } else if (native_campaigns == 0) {
    return "native eval ran no native campaign";
  } else if (wl.warmth == Warmth::Cold && object_hits == native_campaigns) {
    // Every campaign's program came from the object cache: no compile.
    return "cold native eval ran no host compile";
  } else if (wl.warmth == Warmth::WarmObjects &&
             object_hits != native_campaigns) {
    return "warm-objects eval ran the host compiler (" +
           std::to_string(native_campaigns - object_hits) +
           " campaigns without an object-cache hit)";
  }
  return "";
}

eval::RunOptions run_options(const BenchWorkload& wl, const Args& args,
                             obs::Registry* registry) {
  eval::RunOptions options;
  options.out_dir = args.need("out");
  options.store_dir = args.need("store");
  options.threads = wl.threads;
  options.engine = wl.engine;
  options.metrics = registry;
  return options;
}

// ---- Modes ------------------------------------------------------------

int cmd_reference(const Args& args) {
  const auto spec = make_spec(args.get("spec", "paper_small"),
                              std::stoull(args.need("seed")));
  eval::RunOptions options;
  options.out_dir = args.need("out");
  options.threads = kSetupThreads;
  options.engine = interp::EngineKind::Interp;
  const auto results = eval::run_spec(spec, options);
  eval::write_reports(results, options.out_dir);
  if (results.cells_computed != results.cells_total) {
    throw std::runtime_error("reference eval reused cached cells");
  }
  return 0;
}

int cmd_prefill(const Args& args) {
  const auto spec = make_spec(args.get("spec", "paper_small"), 1);
  const std::string dir = args.need("objects");
  setenv("TRIDENT_NATIVE_CACHE", dir.c_str(), 1);
  const auto names = spec.expanded_workloads();
  std::atomic<uint64_t> unavailable{0};
  support::ThreadPool::global().parallel_for(
      names.size(),
      [&](uint64_t i) {
        const ir::Module module = workloads::find_workload(names[i]).build();
        if (!interp::NativeProgram::build_uncached(module)->available()) {
          unavailable.fetch_add(1);
        }
      },
      kSetupThreads, /*grain=*/1);
  if (unavailable.load() != 0 || dir_entries(dir) < names.size()) {
    throw std::runtime_error("native object cache prefill failed");
  }
  return 0;
}

json::Value cal_line(const Calibration& cal) {
  json::Value line = json::Value::object();
  line.set("cal_threads", json::Value(static_cast<double>(cal.threads)));
  line.set("cal_wall_s", json::Value(cal.wall_s));
  line.set("cal_cpu_s", json::Value(cal.cpu_s));
  return line;
}

int cmd_calibrate(const Args& args) {
  const std::string of = args.need("workload");
  const uint32_t threads =
      of == "set-up" ? kSetupThreads : find_bench_workload(of).threads;
  const uint64_t rounds = std::stoull(args.need("cal-rounds"));
  std::printf("%s\n", cal_line(calibrate(threads, rounds)).write().c_str());
  return 0;
}

json::Value eval_line(double wall, double cpu, const std::string& error) {
  json::Value line = json::Value::object();
  line.set("wall_s", json::Value(wall));
  line.set("cpu_s", json::Value(cpu));
  line.set("peak_rss_mib", json::Value(peak_rss_mib()));
  line.set("ok", json::Value(error.empty()));
  line.set("error", json::Value(error));
  return line;
}

int cmd_eval(const Args& args) {
  const BenchWorkload& wl = find_bench_workload(args.need("workload"));
  const auto spec = make_spec(args.get("spec", "paper_small"),
                              std::stoull(args.need("seed")));
  const double budget = std::stod(args.get("seconds", "0"));
  if (budget > 0 && wl.warmth != Warmth::Cached) {
    throw std::runtime_error("in-process repeats would be warm");
  }
  set_object_cache(wl, args);
  const double started = now_s();
  do {
    std::string error = check_before(wl, args);
    double wall = 0, cpu = 0;
    if (error.empty()) {
      obs::Registry registry;
      const auto options = run_options(wl, args, &registry);
      try {
        const double cpu0 = cpu_seconds();
        eval::EvalResults results;
        wall = time_s([&] {
          results = eval::run_spec(spec, options);
          eval::write_reports(results, options.out_dir);
        });
        cpu = cpu_seconds() - cpu0;
        error = check_after(wl, results, registry);
        if (error.empty()) error = compare_reports(options.out_dir,
                                                   args.need("ref"));
      } catch (const std::exception& e) {
        error = std::string("eval threw: ") + e.what();
      }
    }
    std::printf("%s\n", eval_line(wall, cpu, error).write().c_str());
    std::fflush(stdout);
  } while (now_s() - started < budget);
  return 0;
}

// ---- Traced run -------------------------------------------------------

/// The hottest `top_n` injectable instructions, exactly as eval::run_spec
/// picks its per-instruction targets.
std::vector<ir::InstRef> hottest_instructions(const ir::Module& module,
                                              const prof::Profile& profile,
                                              uint32_t top_n) {
  std::vector<ir::InstRef> refs;
  for (uint32_t f = 0; f < module.functions.size(); ++f) {
    const auto& func = module.functions[f];
    for (uint32_t i = 0; i < func.insts.size(); ++i) {
      if (func.insts[i].has_result() && profile.exec({f, i}) > 0) {
        refs.push_back({f, i});
      }
    }
  }
  std::sort(refs.begin(), refs.end(),
            [&](const ir::InstRef& a, const ir::InstRef& b) {
              const uint64_t ea = profile.exec(a), eb = profile.exec(b);
              if (ea != eb) return ea > eb;
              return std::tie(a.func, a.inst) < std::tie(b.func, b.inst);
            });
  if (refs.size() > top_n) refs.resize(top_n);
  return refs;
}

std::string inst_tag(ir::InstRef ref) {
  return "f" + std::to_string(ref.func) + "i" + std::to_string(ref.inst);
}

struct Cell {
  enum class Kind { FiOverall, FiInst, Model };
  Kind kind = Kind::Model;
  size_t workload = 0;
  size_t seed_idx = 0;
  size_t model_idx = 0;
  ir::InstRef target;
  eval::CellKey key;
  json::Value data;
};

/// What the replay leaves behind for the standalone timings.
struct Replay {
  eval::EvalResults results;
  std::vector<ir::Module> modules;
  std::vector<prof::Profile> profiles;
  std::vector<std::vector<ir::InstRef>> hot;
  // Per workload: computed campaigns of each kind, computed trident_bits
  // model cells.
  std::vector<uint64_t> overall_campaigns, inst_campaigns, bit_models;
  std::vector<eval::CellKey> cached_keys;
  int root = -1;
};

json::Value fi_counts_json(const fi::CampaignResult& r) {
  json::Value d = json::Value::object();
  d.set("trials", json::Value(r.total()));
  d.set("sdc", json::Value(r.sdc));
  d.set("benign", json::Value(r.benign));
  d.set("crash", json::Value(r.crash));
  d.set("hang", json::Value(r.hang));
  d.set("detected", json::Value(r.detected));
  d.set("fuel_exhausted", json::Value(r.fuel_exhausted));
  return d;
}

eval::FiCounts fi_counts(const json::Value& d) {
  eval::FiCounts c;
  c.trials = d.get_uint("trials", 0);
  c.sdc = d.get_uint("sdc", 0);
  c.benign = d.get_uint("benign", 0);
  c.crash = d.get_uint("crash", 0);
  c.hang = d.get_uint("hang", 0);
  c.detected = d.get_uint("detected", 0);
  c.fuel_exhausted = d.get_uint("fuel_exhausted", 0);
  return c;
}

void accumulate(eval::FiCounts& into, const eval::FiCounts& c) {
  into.trials += c.trials;
  into.sdc += c.sdc;
  into.benign += c.benign;
  into.crash += c.crash;
  into.hang += c.hang;
  into.detected += c.detected;
  into.fuel_exhausted += c.fuel_exhausted;
}

/// eval::run_spec followed by eval::write_reports, replayed step for
/// step through the layers' public functions with a span around each
/// call. The reports it writes must match the reference byte for byte,
/// which keeps the replay faithful to run_spec.
Replay traced_eval(const eval::ExperimentSpec& spec,
                   const eval::RunOptions& options, Tracer& tracer) {
  Replay rp;
  ScopedSpan root(tracer, "eval", -1);
  rp.root = root.id();
  if (const std::string msg = spec.validate(); !msg.empty()) {
    throw std::runtime_error(msg);
  }
  const eval::ResultStore store(options.store_dir);
  const auto names = spec.expanded_workloads();
  const size_t nw = names.size();

  std::vector<const workloads::Workload*> metas(nw);
  rp.modules.resize(nw);
  rp.profiles.resize(nw);
  {
    ScopedSpan pass(tracer, "eval.profile_pass", root.id());
    support::ThreadPool::global().parallel_for(
        nw,
        [&](uint64_t i) {
          {
            ScopedSpan s(tracer, "workloads.build", pass.id());
            metas[i] = workloads::lookup_workload(names[i]);
            rp.modules[i] = metas[i]->build();
          }
          ScopedSpan s(tracer, "profiler.profile", pass.id());
          rp.profiles[i] = prof::collect_profile(rp.modules[i]);
        },
        options.threads, /*grain=*/1);
  }

  std::vector<Cell> cells;
  {
    ScopedSpan plan(tracer, "eval.plan", root.id());
    rp.hot.resize(nw);
    for (size_t w = 0; w < nw; ++w) {
      rp.hot[w] = hottest_instructions(rp.modules[w], rp.profiles[w],
                                       spec.per_inst.top_n);
    }
    for (size_t w = 0; w < nw; ++w) {
      for (size_t s = 0; s < spec.seeds.size(); ++s) {
        Cell cell;
        cell.kind = Cell::Kind::FiOverall;
        cell.workload = w;
        cell.seed_idx = s;
        cell.key = eval::fi_overall_key(spec, *metas[w], spec.seeds[s]);
        cells.push_back(std::move(cell));
        for (const auto ref : rp.hot[w]) {
          Cell inst;
          inst.kind = Cell::Kind::FiInst;
          inst.workload = w;
          inst.seed_idx = s;
          inst.target = ref;
          inst.key = eval::fi_inst_key(spec, *metas[w], ref, spec.seeds[s]);
          cells.push_back(std::move(inst));
        }
      }
      for (size_t mi = 0; mi < spec.models.size(); ++mi) {
        Cell cell;
        cell.workload = w;
        cell.model_idx = mi;
        cell.key = eval::model_key(spec, *metas[w], spec.models[mi]);
        cells.push_back(std::move(cell));
      }
    }
  }

  eval::InflightTable table;
  std::vector<eval::CellKey> keys;
  for (const Cell& cell : cells) keys.push_back(cell.key);
  std::vector<eval::InflightTable::Claim> claims;
  {
    ScopedSpan s(tracer, "eval.claim", root.id());
    claims = table.claim_all(store, keys, options.force);
  }
  std::vector<size_t> owned;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (claims[i].role == eval::InflightTable::Role::StoreHit) {
      cells[i].data = claims[i].data;
      rp.cached_keys.push_back(cells[i].key);
    } else if (claims[i].role == eval::InflightTable::Role::Owner) {
      owned.push_back(i);
    } else {
      throw std::runtime_error("offline replay claimed a waiter");
    }
  }

  rp.overall_campaigns.assign(nw, 0);
  rp.inst_campaigns.assign(nw, 0);
  rp.bit_models.assign(nw, 0);
  for (const size_t i : owned) {
    const Cell& cell = cells[i];
    if (cell.kind == Cell::Kind::FiOverall) ++rp.overall_campaigns[cell.workload];
    if (cell.kind == Cell::Kind::FiInst) ++rp.inst_campaigns[cell.workload];
    if (cell.kind == Cell::Kind::Model &&
        spec.models[cell.model_idx] == "trident_bits") {
      ++rp.bit_models[cell.workload];
    }
  }

  std::atomic<uint64_t> trials_run{0};
  const auto compute = [&](Cell& cell, int parent) {
    const ir::Module& module = rp.modules[cell.workload];
    const prof::Profile& profile = rp.profiles[cell.workload];
    const auto& hot = rp.hot[cell.workload];
    if (cell.kind != Cell::Kind::Model) {
      fi::CampaignOptions campaign;
      campaign.threads = options.threads;
      campaign.engine = options.engine;
      campaign.fuel_multiplier = spec.fi.fuel_multiplier;
      campaign.hang_escalation = spec.fi.hang_escalation;
      campaign.num_bits = spec.fi.num_bits;
      campaign.metrics = options.metrics;
      campaign.checkpoint_path = store.checkpoint_path(cell.key);
      fi::CampaignResult result;
      {
        ScopedSpan s(tracer, "fi.campaign", parent);
        if (cell.kind == Cell::Kind::FiOverall) {
          campaign.trials = spec.fi.trials;
          campaign.seed = spec.seeds[cell.seed_idx];
          result = fi::run_overall_campaign(module, profile, campaign);
        } else {
          campaign.trials = spec.per_inst.trials;
          campaign.seed = spec.seeds[cell.seed_idx] ^
                          eval::fnv1a64("inst:" + names[cell.workload] +
                                        ":" + inst_tag(cell.target));
          result = fi::run_instruction_campaign(module, profile, cell.target,
                                                campaign);
        }
      }
      trials_run.fetch_add(result.total() - result.resumed);
      cell.data = fi_counts_json(result);
      return;
    }
    const std::string& model = spec.models[cell.model_idx];
    json::Value d = json::Value::object();
    json::Value insts = json::Value::array();
    const auto add_inst = [&](ir::InstRef ref, double sdc) {
      json::Value row = json::Value::object();
      row.set("func", json::Value(static_cast<uint64_t>(ref.func)));
      row.set("inst", json::Value(static_cast<uint64_t>(ref.inst)));
      row.set("exec", json::Value(profile.exec(ref)));
      row.set("sdc", json::Value(sdc));
      insts.push_back(std::move(row));
    };
    if (model == "pvf") {
      ScopedSpan s(tracer, "baselines.pvf", parent);
      const baselines::PvfModel pvf(module, profile);
      d.set("overall_sdc", json::Value(pvf.overall()));
      for (const auto ref : hot) add_inst(ref, pvf.pvf(ref));
    } else if (model == "epvf") {
      ScopedSpan s(tracer, "baselines.epvf", parent);
      const baselines::EpvfModel epvf(module, profile);
      d.set("overall_sdc", json::Value(epvf.overall()));
      for (const auto ref : hot) add_inst(ref, epvf.epvf(ref));
    } else {
      ScopedSpan s(tracer, "core.model", parent);
      const auto config = core::model_config_from_name(model);
      const core::Trident trident(module, profile, *config);
      d.set("overall_sdc", json::Value(trident.overall_sdc_exact()));
      const auto preds = trident.predict_all(hot, options.threads);
      for (size_t i = 0; i < hot.size(); ++i) add_inst(hot[i], preds[i].sdc);
      if (options.metrics != nullptr) trident.export_metrics(*options.metrics);
    }
    d.set("insts", std::move(insts));
    cell.data = std::move(d);
  };

  {
    ScopedSpan pass(tracer, "eval.cells", root.id());
    support::ThreadPool::global().parallel_for(
        owned.size(),
        [&](uint64_t oi) {
          Cell& cell = cells[owned[oi]];
          ScopedSpan s(tracer, "eval.cell", pass.id());
          compute(cell, s.id());
          {
            ScopedSpan save(tracer, "eval.store_save", s.id());
            store.save(cell.key, cell.data);
          }
          table.publish(claims[owned[oi]].cell);
        },
        options.threads, /*grain=*/1);
  }

  {
    ScopedSpan s(tracer, "eval.assemble", root.id());
    eval::EvalResults& results = rp.results;
    results.spec = spec;
    results.cells_total = cells.size();
    results.cells_computed = owned.size();
    results.cells_cached = rp.cached_keys.size();
    results.fi_trials_run = trials_run.load();
    results.workloads.resize(nw);
    for (size_t w = 0; w < nw; ++w) {
      eval::WorkloadEval& we = results.workloads[w];
      we.name = metas[w]->name;
      we.suite = metas[w]->suite;
      we.input = metas[w]->input;
      we.static_insts = rp.modules[w].num_insts();
      we.dynamic_insts = rp.profiles[w].total_dynamic;
      we.population = rp.profiles[w].total_results;
      we.model_sdc.resize(spec.models.size(), 0.0);
      we.insts.resize(rp.hot[w].size());
      for (size_t i = 0; i < rp.hot[w].size(); ++i) {
        we.insts[i].ref = rp.hot[w][i];
        we.insts[i].exec = rp.profiles[w].exec(rp.hot[w][i]);
        we.insts[i].model_sdc.resize(spec.models.size(), 0.0);
      }
    }
    for (const Cell& cell : cells) {
      eval::WorkloadEval& we = results.workloads[cell.workload];
      switch (cell.kind) {
        case Cell::Kind::FiOverall:
          accumulate(we.fi, fi_counts(cell.data));
          break;
        case Cell::Kind::FiInst:
          for (auto& row : we.insts) {
            if (row.ref == cell.target) accumulate(row.fi, fi_counts(cell.data));
          }
          break;
        case Cell::Kind::Model: {
          we.model_sdc[cell.model_idx] = cell.data.get_double("overall_sdc", 0);
          const json::Value* insts = cell.data.find("insts");
          if (insts == nullptr || insts->items().size() != we.insts.size()) {
            throw std::runtime_error("stale model cell " + cell.key.slug);
          }
          for (size_t i = 0; i < we.insts.size(); ++i) {
            we.insts[i].model_sdc[cell.model_idx] =
                insts->items()[i].get_double("sdc", 0);
          }
          break;
        }
      }
    }
  }
  {
    ScopedSpan s(tracer, "eval.report", root.id());
    eval::write_reports(rp.results, options.out_dir);
  }
  return rp;
}

int cmd_trace(const Args& args) {
  const BenchWorkload& wl = find_bench_workload(args.need("workload"));
  const auto spec = make_spec(args.get("spec", "paper_small"),
                              std::stoull(args.need("seed")));
  const std::string cc_log = args.need("cc-log");
  set_object_cache(wl, args);
  std::string error = check_before(wl, args);
  if (!error.empty()) throw std::runtime_error(error);

  Tracer tracer;
  obs::Registry registry;
  const auto options = run_options(wl, args, &registry);
  const Replay rp = traced_eval(spec, options, tracer);
  // Host-compiler runs of the whole eval, read before the standalone
  // compiles below add their own.
  const uint64_t cc_runs = count_lines(cc_log);
  error = check_after(wl, rp.results, registry);
  if (error.empty()) error = compare_reports(options.out_dir, args.need("ref"));
  const size_t kernels = rp.modules.size();
  const bool compiles =
      wl.engine == interp::EngineKind::Native && wl.warmth == Warmth::Cold;
  if (error.empty() && compiles && cc_runs < kernels) {
    error = "cold native eval ran the host compiler fewer times than it "
            "has kernels";
  }
  if (error.empty() && !compiles && cc_runs != 0) {
    error = "host compiler ran outside cold-native";
  }

  // Standalone timings of the calls made inside another layer's
  // function, each reported as unit cost x count.
  double lower_s = 0, plan_s = 0, setup_s = 0, compile_s = 0, bits_s = 0,
         load_s = 0;
  for (size_t w = 0; w < kernels; ++w) {
    ScopedSpan s(tracer, "standalone.lower", -1);
    lower_s += time_s([&] { interp::LoweredProgram::lower(rp.modules[w]); });
  }
  const fi::CampaignOptions defaults;
  for (size_t w = 0; w < kernels; ++w) {
    const uint64_t campaigns = rp.overall_campaigns[w] + rp.inst_campaigns[w];
    if (campaigns == 0) continue;
    const ir::Module& module = rp.modules[w];
    const prof::Profile& profile = rp.profiles[w];
    fi::EngineContext ctx;
    {
      ScopedSpan s(tracer, "standalone.engine_setup", -1);
      setup_s += campaigns * time_s([&] {
        ctx = fi::make_engine_context(module, wl.engine);
        for (uint32_t k = 0; k < wl.threads; ++k) {
          fi::TrialRunner runner(module, profile, ir::kNoFunc, nullptr, ctx);
        }
      });
    }
    const uint64_t fuel =
        fi::campaign_fuel(profile, spec.fi.fuel_multiplier);
    const auto plan = [&](ir::InstRef occ_target) {
      ScopedSpan s(tracer, "standalone.snapshot_plan", -1);
      return time_s([&] {
        fi::build_snapshot_plan(module, profile.total_results, fuel,
                                ir::kNoFunc, defaults.max_snapshots,
                                defaults.snapshot_bytes_budget, occ_target,
                                ctx);
      });
    };
    plan_s += rp.overall_campaigns[w] * plan({});
    if (rp.inst_campaigns[w] > 0) {
      plan_s += rp.inst_campaigns[w] * plan(rp.hot[w].front());
    }
  }
  {
    const std::string probe = args.need("out") + "/compile-probe";
    setenv("TRIDENT_NATIVE_CACHE", probe.c_str(), 1);
    for (size_t w = 0; w < kernels; ++w) {
      ScopedSpan s(tracer, "standalone.native_compile", -1);
      compile_s += time_s(
          [&] { interp::NativeProgram::build_uncached(rp.modules[w]); });
    }
  }
  // The campaigns' engine set-up includes every host-compiler run.
  setup_s += cc_runs * (compile_s / static_cast<double>(kernels));
  for (size_t w = 0; w < kernels; ++w) {
    if (rp.bit_models[w] == 0) continue;
    ScopedSpan s(tracer, "standalone.bit_facts", -1);
    bits_s += rp.bit_models[w] *
              time_s([&] { analysis::BitFacts facts(rp.modules[w]); });
  }
  {
    const eval::ResultStore store(options.store_dir);
    ScopedSpan s(tracer, "standalone.store_load", -1);
    for (const auto& key : rp.cached_keys) {
      load_s += time_s([&] {
        if (!store.load(key)) error = "cached cell vanished from the store";
      });
    }
  }

  const std::vector<Span> spans = tracer.spans();
  {
    std::ofstream out(args.need("trace-out"), std::ios::binary);
    out << tracer.chrome_json();
    if (!out) throw std::runtime_error("cannot write the trace");
  }
  const double wall = spans[static_cast<size_t>(rp.root)].seconds();
  const double busy = e2ebench::total_seconds(spans, "fi.campaign");
  const uint64_t trials = rp.results.fi_trials_run;
  uint64_t dynamic_insts = 0;
  for (const auto& p : rp.profiles) dynamic_insts += p.total_dynamic;
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };

  json::Value m = json::Value::object();
  const auto put = [&](const char* name, double v) { m.set(name, json::Value(v)); };
  put("trace.wall_s", wall);
  put("workloads.build_s", e2ebench::total_seconds(spans, "workloads.build"));
  put("profiler.profile_s", e2ebench::total_seconds(spans, "profiler.profile"));
  put("profiler.dynamic_insts", static_cast<double>(dynamic_insts));
  put("interp.lower_s", lower_s);
  put("interp.native_compile_s", compile_s);
  put("interp.native_cc_runs", static_cast<double>(cc_runs));
  put("fi.campaigns",
      static_cast<double>(e2ebench::count(spans, "fi.campaign")));
  put("fi.trials", static_cast<double>(trials));
  put("fi.campaign_wall_s", e2ebench::union_seconds(spans, "fi.campaign"));
  put("fi.campaign_busy_s", busy);
  put("fi.snapshot_plan_s", plan_s);
  put("fi.engine_setup_s", setup_s);
  put("fi.trial_us", ratio(std::max(0.0, busy - plan_s - setup_s) * 1e6,
                           static_cast<double>(trials)));
  put("fi.resumed_ratio",
      ratio(static_cast<double>(registry.counter("fi.snapshot_resumed_trials")),
            static_cast<double>(registry.counter("fi.trials.run"))));
  put("fi.snapshot_bytes",
      static_cast<double>(registry.counter("fi.snapshot_bytes")));
  put("core.model_s", e2ebench::total_seconds(spans, "core.model"));
  put("analysis.bit_facts_s", bits_s);
  put("baselines.pvf_s", e2ebench::total_seconds(spans, "baselines.pvf"));
  put("baselines.epvf_s", e2ebench::total_seconds(spans, "baselines.epvf"));
  put("eval.plan_s", e2ebench::total_seconds(spans, "eval.plan"));
  put("eval.claim_s", e2ebench::total_seconds(spans, "eval.claim"));
  put("eval.store_load_s", load_s);
  put("eval.store_loads", static_cast<double>(rp.cached_keys.size()));
  put("eval.store_save_s", e2ebench::total_seconds(spans, "eval.store_save"));
  put("eval.store_saves",
      static_cast<double>(e2ebench::count(spans, "eval.store_save")));
  put("eval.report_s", e2ebench::total_seconds(spans, "eval.report"));
  put("eval.cells_computed", static_cast<double>(rp.results.cells_computed));
  put("eval.cells_cached", static_cast<double>(rp.results.cells_cached));

  json::Value line = json::Value::object();
  line.set("ok", json::Value(error.empty()));
  line.set("error", json::Value(error));
  line.set("metrics", std::move(m));
  std::printf("%s\n", line.write().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.mode == "reference") return cmd_reference(args);
    if (args.mode == "prefill") return cmd_prefill(args);
    if (args.mode == "eval") return cmd_eval(args);
    if (args.mode == "calibrate") return cmd_calibrate(args);
    if (args.mode == "trace") return cmd_trace(args);
    throw std::runtime_error("unknown mode '" + args.mode + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
