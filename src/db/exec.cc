#include "db/exec.hh"

#include <algorithm>

#include "util/assert.hh"

namespace repli::db {

std::vector<std::pair<Key, bool>> Operation::lock_plan() const {
  std::map<Key, bool> plan;  // key -> exclusive?
  for (const auto& k : read_set) plan.emplace(k, false);
  for (const auto& k : write_set) plan[k] = true;
  return {plan.begin(), plan.end()};
}

std::int64_t ReplayChoices::choose(std::int64_t /*n*/) {
  util::ensure(next_ < log_.size(), "ReplayChoices: log exhausted");
  return log_[next_++];
}

ProcCtx::ProcCtx(TxnExec& txn, const Operation& op, ChoiceSource& choices)
    : txn_(txn), op_(op), choices_(choices) {}

Value ProcCtx::get(const Key& key) {
  const bool declared =
      std::find(op_.read_set.begin(), op_.read_set.end(), key) != op_.read_set.end() ||
      std::find(op_.write_set.begin(), op_.write_set.end(), key) != op_.write_set.end();
  if (!declared) util::fail("ProcCtx::get: undeclared read of '" + key + "' by " + op_.proc);
  return txn_.read(key);
}

void ProcCtx::put(const Key& key, Value value) {
  const bool declared =
      std::find(op_.write_set.begin(), op_.write_set.end(), key) != op_.write_set.end();
  if (!declared) util::fail("ProcCtx::put: undeclared write of '" + key + "' by " + op_.proc);
  txn_.write(key, std::move(value));
}

const std::string& ProcCtx::arg(std::size_t i) const {
  if (i >= op_.args.size()) util::fail("ProcCtx::arg: index out of range for " + op_.proc);
  return op_.args[i];
}

void ProcRegistry::add(const std::string& name, ProcFn fn, bool deterministic) {
  if (procs_.contains(name)) util::fail("ProcRegistry: duplicate procedure " + name);
  procs_.emplace(name, Entry{std::move(fn), deterministic});
}

const ProcFn& ProcRegistry::fn(const std::string& name) const {
  const auto it = procs_.find(name);
  if (it == procs_.end()) util::fail("ProcRegistry: unknown procedure " + name);
  return it->second.fn;
}

bool ProcRegistry::deterministic(const std::string& name) const {
  const auto it = procs_.find(name);
  if (it == procs_.end()) util::fail("ProcRegistry: unknown procedure " + name);
  return it->second.deterministic;
}

ProcRegistry ProcRegistry::with_builtins() {
  ProcRegistry reg;
  reg.add("get", [](ProcCtx& ctx) { ctx.result(ctx.get(ctx.arg(0))); });
  reg.add("put", [](ProcCtx& ctx) {
    ctx.put(ctx.arg(0), ctx.arg(1));
    ctx.result("ok");
  });
  reg.add("append", [](ProcCtx& ctx) {
    const auto cur = ctx.get(ctx.arg(0));
    ctx.put(ctx.arg(0), cur + ctx.arg(1));
    ctx.result("ok");
  });
  reg.add("add", [](ProcCtx& ctx) {
    const auto cur = ctx.get(ctx.arg(0));
    const std::int64_t base = cur.empty() ? 0 : std::stoll(cur);
    const std::int64_t delta = std::stoll(ctx.arg(1));
    ctx.put(ctx.arg(0), std::to_string(base + delta));
    ctx.result(std::to_string(base + delta));
  });
  reg.add("transfer", [](ProcCtx& ctx) {
    // transfer(from, to, amount): moves funds if sufficient balance.
    if (ctx.arg(0) == ctx.arg(1)) {
      // Self-transfer: a no-op, not a double write of the same account.
      ctx.result("ok");
      return;
    }
    const auto from_raw = ctx.get(ctx.arg(0));
    const auto to_raw = ctx.get(ctx.arg(1));
    const std::int64_t from_bal = from_raw.empty() ? 0 : std::stoll(from_raw);
    const std::int64_t to_bal = to_raw.empty() ? 0 : std::stoll(to_raw);
    const std::int64_t amount = std::stoll(ctx.arg(2));
    if (from_bal < amount) {
      ctx.result("insufficient");
      return;
    }
    ctx.put(ctx.arg(0), std::to_string(from_bal - amount));
    ctx.put(ctx.arg(1), std::to_string(to_bal + amount));
    ctx.result("ok");
  });
  reg.add(
      "spin_nondet",
      [](ProcCtx& ctx) {
        // Writes a value that depends on a nondeterministic choice — the
        // canonical determinism-breaker for active replication.
        const auto pick = ctx.choose(1'000'000);
        ctx.put(ctx.arg(0), "spin-" + std::to_string(pick));
        ctx.result(std::to_string(pick));
      },
      /*deterministic=*/false);
  return reg;
}

Value TxnExec::read(const Key& key) {
  if (const auto it = writes_.find(key); it != writes_.end()) return it->second;
  const auto rec = base_.get(key);
  if (!rec.has_value()) {
    reads_.emplace(key, 0);  // read of a non-existent record: version 0
    return "";
  }
  reads_.emplace(key, rec->version);
  return rec->value;
}

void TxnExec::write(const Key& key, Value value) { writes_[key] = std::move(value); }

std::string TxnExec::run(const ProcRegistry& registry, const Operation& op,
                         ChoiceSource& choices) {
  ProcCtx ctx(*this, op, choices);
  registry.fn(op.proc)(ctx);
  return ctx.current_result();
}

std::uint64_t TxnExec::commit_into(Storage& target) {
  const std::uint64_t seq = target.next_commit_seq();
  for (const auto& [key, value] : writes_) {
    target.put(key, value, seq, txn_id_);
  }
  return seq;
}

SingleOpResult execute_and_commit(const ProcRegistry& registry, const Operation& op,
                                  Storage& storage, ChoiceSource& choices,
                                  const std::string& txn_id) {
  TxnExec txn(txn_id, storage);
  SingleOpResult out;
  out.result = txn.run(registry, op, choices);
  out.read_versions = txn.read_versions();
  out.writes = txn.writes();
  if (!txn.writes().empty()) out.commit_seq = txn.commit_into(storage);
  return out;
}

}  // namespace repli::db
