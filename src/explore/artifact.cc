#include "explore/artifact.hh"

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/json.hh"
#include "util/log.hh"

namespace repli::explore {

namespace {

std::string output_dir() {
  if (const char* env = std::getenv("REPLI_BENCH_DIR"); env != nullptr && *env != '\0') {
    return env;
  }
  return ".";
}

void write_trial_row(obs::JsonWriter& w, const TrialRow& row) {
  w.begin_object();
  w.field("trial", row.trial);
  w.field("workload_seed", hex_u64(row.workload_seed));
  w.field("schedule_seed", hex_u64(row.schedule_seed));
  w.field("plan", row.plan);
  w.field("ok", row.result.ok);
  w.field("failed_check", row.result.failed_check);
  w.field("violation", row.result.violation);
  w.field("schedule_digest", hex_u64(row.result.schedule_digest));
  w.field("events", row.result.events);
  w.field("ops_ok", static_cast<std::uint64_t>(row.result.ops_ok));
  w.field("ops_failed", static_cast<std::uint64_t>(row.result.ops_failed));
  w.field("faults_injected", static_cast<std::uint64_t>(row.result.faults_injected));
  w.field("ties_randomized", static_cast<std::uint64_t>(row.result.ties_randomized));
  w.field("tainted_keys", static_cast<std::uint64_t>(row.result.tainted_keys));
  w.field("keys_checked", static_cast<std::uint64_t>(row.result.keys_checked));
  w.field("keys_skipped", static_cast<std::uint64_t>(row.result.keys_skipped));
  w.end_object();
}

double num_or(const obs::JsonValue* v, double fallback) {
  return v != nullptr && v->is(obs::JsonValue::Type::Number) ? v->number : fallback;
}

std::string str_or(const obs::JsonValue* v, std::string fallback) {
  return v != nullptr && v->is(obs::JsonValue::Type::String) ? v->str
                                                             : std::move(fallback);
}

bool bool_or(const obs::JsonValue* v, bool fallback) {
  return v != nullptr && v->is(obs::JsonValue::Type::Bool) ? v->boolean : fallback;
}

std::uint64_t hex_or(const obs::JsonValue* v, std::uint64_t fallback) {
  if (v == nullptr || !v->is(obs::JsonValue::Type::String)) return fallback;
  return parse_hex_u64(v->str).value_or(fallback);
}

bool load_fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

}  // namespace

std::string hex_u64(std::uint64_t v) {
  static constexpr char digits[] = "0123456789abcdef";
  std::string out = "0x0000000000000000";
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(17 - i)] = digits[(v >> (4 * i)) & 0xF];
  }
  return out;
}

std::optional<std::uint64_t> parse_hex_u64(std::string_view s) {
  if (s.size() < 3 || s[0] != '0' || s[1] != 'x') return std::nullopt;
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data() + 2, s.data() + s.size(), v, 16);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

void write_explore_json(const ExploreResult& result, std::ostream& os) {
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("artifact", "EXPLORE");
  w.field("schema_version", kExploreSchemaVersion);
  w.key("provenance").begin_object();
#ifdef REPLI_GIT_SHA
  w.field("git_sha", REPLI_GIT_SHA);
#else
  w.field("git_sha", "unknown");
#endif
  w.end_object();
  w.field("technique", std::string(core::technique_name(result.config.kind)));
  w.field("seed", hex_u64(result.config.seed));
  w.field("trials", result.config.trials);

  w.key("config").begin_object();
  w.field("replicas", result.config.replicas);
  w.field("clients", result.config.clients);
  w.field("ops_per_client", result.config.ops_per_client);
  w.field("keys", result.config.keys);
  w.field("settle_us", static_cast<std::uint64_t>(result.config.settle));
  w.field("max_faults", result.config.max_faults);
  w.field("max_jitter_us", static_cast<std::uint64_t>(result.config.max_jitter));
  w.field("allow_crash", result.config.allow_crash);
  w.field("allow_partition", result.config.allow_partition);
  w.field("allow_jitter", result.config.allow_jitter);
  w.field("allow_tie", result.config.allow_tie);
  w.end_object();

  w.key("totals").begin_object();
  w.field("events", result.events_total);
  w.field("faults_injected", result.faults_injected_total);
  w.field("violations", static_cast<std::uint64_t>(result.violations.size()));
  w.end_object();

  w.key("violations").begin_array();
  for (const auto& v : result.violations) {
    w.begin_object();
    w.field("trial", v.trial.trial);
    w.field("workload_seed", hex_u64(v.trial.workload_seed));
    w.field("schedule_seed", hex_u64(v.trial.schedule_seed));
    w.field("plan", v.trial.plan);
    w.field("failed_check", v.trial.result.failed_check);
    w.field("violation", v.trial.result.violation);
    w.field("minimal_plan", v.minimal_plan);
    w.field("minimal_failed_check", v.minimal_failed_check);
    w.field("minimal_schedule_digest", hex_u64(v.minimal_schedule_digest));
    w.field("shrink_steps", v.shrink_steps);
    w.field("shrink_runs", v.shrink_runs);
    w.end_object();
  }
  w.end_array();

  w.key("trial_rows").begin_array();
  for (const auto& row : result.rows) write_trial_row(w, row);
  w.end_array();

  w.end_object();
  os << "\n";
}

std::string save_explore(const ExploreResult& result) {
  const std::string path = output_dir() + "/EXPLORE_" +
                           std::string(core::technique_name(result.config.kind)) +
                           ".json";
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    util::log_error("save_explore: cannot open ", path);
    return "";
  }
  write_explore_json(result, os);
  os.flush();
  if (!os) {
    util::log_error("save_explore: write failed for ", path);
    return "";
  }
  return path;
}

std::optional<ExploreResult> load_explore_json(std::string_view text,
                                               std::string* error) {
  const auto doc = obs::json_parse(text);
  if (!doc.has_value() || !doc->is(obs::JsonValue::Type::Object)) {
    load_fail(error, "not a JSON object");
    return std::nullopt;
  }
  if (str_or(doc->find("artifact"), "") != "EXPLORE") {
    load_fail(error, "not an EXPLORE artifact");
    return std::nullopt;
  }
  if (static_cast<int>(num_or(doc->find("schema_version"), 0)) != kExploreSchemaVersion) {
    load_fail(error, "unsupported EXPLORE schema version");
    return std::nullopt;
  }

  ExploreResult out;
  const auto technique = str_or(doc->find("technique"), "");
  const auto kind = core::technique_from_name(technique);
  if (!kind.has_value()) {
    load_fail(error, "unknown technique '" + technique + "'");
    return std::nullopt;
  }
  out.config.kind = *kind;
  out.config.seed = hex_or(doc->find("seed"), 1);
  out.config.trials = static_cast<int>(num_or(doc->find("trials"), 0));
  if (const auto* cfg = doc->find("config"); cfg != nullptr) {
    out.config.replicas = static_cast<int>(num_or(cfg->find("replicas"), 3));
    out.config.clients = static_cast<int>(num_or(cfg->find("clients"), 3));
    out.config.ops_per_client = static_cast<int>(num_or(cfg->find("ops_per_client"), 25));
    out.config.keys = static_cast<int>(num_or(cfg->find("keys"), 4));
    out.config.settle = static_cast<sim::Time>(num_or(cfg->find("settle_us"), 0));
    out.config.max_faults = static_cast<int>(num_or(cfg->find("max_faults"), 2));
    out.config.max_jitter = static_cast<sim::Time>(num_or(cfg->find("max_jitter_us"), 0));
    out.config.allow_crash = bool_or(cfg->find("allow_crash"), true);
    out.config.allow_partition = bool_or(cfg->find("allow_partition"), true);
    out.config.allow_jitter = bool_or(cfg->find("allow_jitter"), true);
    out.config.allow_tie = bool_or(cfg->find("allow_tie"), true);
  }
  if (const auto* totals = doc->find("totals"); totals != nullptr) {
    out.events_total = static_cast<std::uint64_t>(num_or(totals->find("events"), 0));
    out.faults_injected_total =
        static_cast<std::uint64_t>(num_or(totals->find("faults_injected"), 0));
  }

  if (const auto* rows = doc->find("trial_rows");
      rows != nullptr && rows->is(obs::JsonValue::Type::Array)) {
    for (const auto& r : rows->array) {
      TrialRow row;
      row.trial = static_cast<int>(num_or(r.find("trial"), 0));
      row.workload_seed = hex_or(r.find("workload_seed"), 0);
      row.schedule_seed = hex_or(r.find("schedule_seed"), 0);
      row.plan = str_or(r.find("plan"), "none");
      row.result.ok = bool_or(r.find("ok"), true);
      row.result.failed_check = str_or(r.find("failed_check"), "");
      row.result.violation = str_or(r.find("violation"), "");
      row.result.schedule_digest = hex_or(r.find("schedule_digest"), 0);
      row.result.events = static_cast<std::uint64_t>(num_or(r.find("events"), 0));
      row.result.ops_ok = static_cast<std::size_t>(num_or(r.find("ops_ok"), 0));
      row.result.ops_failed = static_cast<std::size_t>(num_or(r.find("ops_failed"), 0));
      row.result.faults_injected =
          static_cast<std::size_t>(num_or(r.find("faults_injected"), 0));
      out.rows.push_back(std::move(row));
    }
  }

  if (const auto* violations = doc->find("violations");
      violations != nullptr && violations->is(obs::JsonValue::Type::Array)) {
    for (const auto& v : violations->array) {
      ViolationRecord rec;
      rec.trial.trial = static_cast<int>(num_or(v.find("trial"), 0));
      rec.trial.workload_seed = hex_or(v.find("workload_seed"), 0);
      rec.trial.schedule_seed = hex_or(v.find("schedule_seed"), 0);
      rec.trial.plan = str_or(v.find("plan"), "none");
      rec.trial.result.ok = false;
      rec.trial.result.failed_check = str_or(v.find("failed_check"), "");
      rec.trial.result.violation = str_or(v.find("violation"), "");
      rec.minimal_plan = str_or(v.find("minimal_plan"), rec.trial.plan);
      rec.minimal_failed_check = str_or(v.find("minimal_failed_check"), "");
      rec.minimal_schedule_digest = hex_or(v.find("minimal_schedule_digest"), 0);
      rec.shrink_steps = static_cast<int>(num_or(v.find("shrink_steps"), 0));
      rec.shrink_runs = static_cast<int>(num_or(v.find("shrink_runs"), 0));
      out.violations.push_back(std::move(rec));
    }
  }
  return out;
}

std::optional<ExploreResult> load_explore_file(const std::string& path,
                                               std::string* error) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    load_fail(error, "cannot open " + path);
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << is.rdbuf();
  return load_explore_json(buffer.str(), error);
}

}  // namespace repli::explore
