// perfbench_pb: the serving benchmark's load generator.  perfbench/run.py
// drives it; every subcommand prints one JSON object as its last stdout
// line.
//
//   perfbench_pb prep   --out DIR --height H --entries N --seed S
//                       --batches B [--rw-batches R] [--shards K]
//   perfbench_pb inproc --inputs DIR --seconds T --warmup W --windows N
//   perfbench_pb inproc-rw --inputs DIR --seconds T --warmup W --windows N
//   perfbench_pb wire   --inputs DIR --port-file F --seconds T --warmup W
//                       --windows N
//   perfbench_pb rw     --inputs DIR --port-file F --seconds T --warmup W
//                       --windows N
//   perfbench_pb ladder --own DIR --hot DIR --workload W --seconds T
//                       --hot-port P --hot-pid N --router-port P
//                       --router-pid N --rw-port P [--spans-out FILE]
//
// wire and rw load their inputs, print "ready" and then read from stdin
// the steady-clock time (ns) at which run.py spawned the server.
//
// --corrupt 1 flips one expected answer after loading (harness self-test:
// the run must then fail).

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "commands.hpp"
#include "common.hpp"

namespace pb {

Args::Args(int argc, char** argv) {
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      die(std::string("bad argument '") + argv[i] + "'");
    }
    kv_[argv[i] + 2] = argv[i + 1];
    ++i;
  }
}

std::string Args::str(const std::string& k) const {
  const auto it = kv_.find(k);
  if (it == kv_.end()) {
    die("missing --" + k);
  }
  return it->second;
}

std::string Args::str(const std::string& k, const std::string& dflt) const {
  const auto it = kv_.find(k);
  return it == kv_.end() ? dflt : it->second;
}

double Args::num(const std::string& k) const {
  const std::string s = str(k);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    die("--" + k + " is not a number");
  }
  return v;
}

double Args::num(const std::string& k, double dflt) const {
  return has(k) ? num(k) : dflt;
}

}  // namespace pb

int main(int argc, char** argv) {
  if (argc < 2) {
    pb::die("usage: perfbench_pb prep|inproc|inproc-rw|wire|rw|ladder "
            "[--k v]...");
  }
  const pb::Args a(argc - 2, argv + 2);
  const std::string cmd = argv[1];
  if (cmd == "prep") {
    return pb::cmd_prep(a);
  }
  if (cmd == "inproc") {
    return pb::cmd_inproc(a);
  }
  if (cmd == "inproc-rw") {
    return pb::cmd_inproc_rw(a);
  }
  if (cmd == "wire") {
    return pb::cmd_wire(a);
  }
  if (cmd == "rw") {
    return pb::cmd_rw(a);
  }
  if (cmd == "ladder") {
    return pb::cmd_ladder(a);
  }
  pb::die("unknown subcommand '" + cmd + "'");
}
