#pragma once
// The load generator's subcommands (main.cpp dispatches on argv[1]).

#include <map>
#include <string>

namespace pb {

/// `--name value` pairs from the command line.
class Args {
 public:
  Args(int argc, char** argv);
  [[nodiscard]] bool has(const std::string& k) const {
    return kv_.count(k) != 0;
  }
  [[nodiscard]] std::string str(const std::string& k) const;
  [[nodiscard]] std::string str(const std::string& k,
                                const std::string& dflt) const;
  [[nodiscard]] double num(const std::string& k) const;
  [[nodiscard]] double num(const std::string& k, double dflt) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// Build a seeded tree, its snapshot, partition and query pools.
int cmd_prep(const Args& a);
// One sub-run of a workload each: set-up timed to the first checked
// batch, a warm-up, then the timed closed loop.
/// inproc_big: snapshot::open -> Registry -> Frontend, in this process.
int cmd_inproc(const Args& a);
/// wire_hot / router_fanout: PATH_BATCH clients of a just-spawned server.
int cmd_wire(const Args& a);
/// wire_rw: MUTATE + probe + DYN_PATH_BATCH clients.
int cmd_rw(const Args& a);
/// inproc_rw: the same writes and reads through a Frontend in this
/// process, over a DynamicCatalog attached to the opened snapshot, from
/// kInprocRwCallers callers.
int cmd_inproc_rw(const Args& a);
/// The traced per-layer ladder.
int cmd_ladder(const Args& a);

}  // namespace pb
