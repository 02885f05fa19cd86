#include "explore/plan.hh"

#include <array>
#include <charconv>

namespace repli::explore {

namespace {

constexpr std::array<std::string_view, 5> kPhases = {"re", "sc", "ex", "ac", "end"};

bool is_phase(std::string_view s) {
  for (const auto p : kPhases) {
    if (s == p) return true;
  }
  return false;
}

std::string format_trigger(const Trigger& t) {
  if (t.kind == Trigger::Kind::Time) return "t" + std::to_string(t.at);
  return t.phase + std::to_string(t.occurrence);
}

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

/// Parses a non-negative integer starting at s[pos]; advances pos.
bool parse_uint(std::string_view s, std::size_t& pos, std::uint64_t& out,
                std::string* error) {
  const char* begin = s.data() + pos;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc() || ptr == begin) {
    return fail(error, "expected a number at '" + std::string(s.substr(pos)) + "'");
  }
  pos += static_cast<std::size_t>(ptr - begin);
  return true;
}

bool parse_trigger(std::string_view s, std::size_t& pos, Trigger& out,
                   std::string* error) {
  // "t<us>" or "<phase><k>". "t" is not a phase abbreviation, so the
  // leading letter disambiguates.
  if (pos < s.size() && s[pos] == 't') {
    ++pos;
    std::uint64_t at = 0;
    if (!parse_uint(s, pos, at, error)) return false;
    out.kind = Trigger::Kind::Time;
    out.at = static_cast<sim::Time>(at);
    return true;
  }
  std::size_t len = 0;
  while (pos + len < s.size() && s[pos + len] >= 'a' && s[pos + len] <= 'z') ++len;
  const auto abbrev = s.substr(pos, len);
  if (!is_phase(abbrev)) {
    return fail(error, "unknown phase '" + std::string(abbrev) +
                           "' (expected re/sc/ex/ac/end or t<us>)");
  }
  pos += len;
  std::uint64_t k = 0;
  if (!parse_uint(s, pos, k, error)) return false;
  if (k == 0) return fail(error, "phase occurrence is 1-based");
  out.kind = Trigger::Kind::Phase;
  out.phase = std::string(abbrev);
  out.occurrence = static_cast<std::uint32_t>(k);
  return true;
}

bool parse_fault(std::string_view entry, Fault::Kind kind, Plan& plan,
                 std::string* error) {
  // After the "crash@"/"part@" prefix: trig ":r" I ["+" D]
  std::size_t pos = 0;
  Fault fault;
  fault.kind = kind;
  if (!parse_trigger(entry, pos, fault.trigger, error)) return false;
  if (pos + 1 >= entry.size() || entry[pos] != ':' || entry[pos + 1] != 'r') {
    return fail(error, "expected ':r<replica>' in '" + std::string(entry) + "'");
  }
  pos += 2;
  std::uint64_t replica = 0;
  if (!parse_uint(entry, pos, replica, error)) return false;
  fault.replica = static_cast<int>(replica);
  if (kind == Fault::Kind::Partition) {
    if (pos >= entry.size() || entry[pos] != '+') {
      return fail(error, "partition needs '+<duration_us>' in '" + std::string(entry) + "'");
    }
    ++pos;
    std::uint64_t duration = 0;
    if (!parse_uint(entry, pos, duration, error)) return false;
    if (duration == 0) return fail(error, "partition duration must be > 0");
    fault.heal_after = static_cast<sim::Time>(duration);
  }
  if (pos != entry.size()) {
    return fail(error, "trailing garbage in '" + std::string(entry) + "'");
  }
  plan.faults.push_back(std::move(fault));
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
  return s;
}

}  // namespace

std::string format_plan(const Plan& plan) {
  if (plan.empty()) return "none";
  std::string out;
  const auto emit = [&out](std::string entry) {
    if (!out.empty()) out += "; ";
    out += std::move(entry);
  };
  if (plan.tie_break) emit("tie");
  if (plan.jitter > 0) emit("jitter=" + std::to_string(plan.jitter));
  if (plan.loss > 0) emit("loss=" + std::to_string(plan.loss));
  for (const auto& f : plan.faults) {
    std::string entry = f.kind == Fault::Kind::Crash ? "crash@" : "part@";
    entry += format_trigger(f.trigger);
    entry += ":r" + std::to_string(f.replica);
    if (f.kind == Fault::Kind::Partition) entry += "+" + std::to_string(f.heal_after);
    emit(std::move(entry));
  }
  return out;
}

std::optional<Plan> parse_plan(std::string_view text, std::string* error) {
  Plan plan;
  const auto trimmed = trim(text);
  if (trimmed.empty() || trimmed == "none") return plan;
  std::size_t start = 0;
  while (start <= trimmed.size()) {
    const auto semi = trimmed.find(';', start);
    const auto entry =
        trim(trimmed.substr(start, semi == std::string_view::npos ? semi : semi - start));
    if (entry.empty()) {
      fail(error, "empty plan entry");
      return std::nullopt;
    }
    if (entry == "tie") {
      plan.tie_break = true;
    } else if (entry.rfind("jitter=", 0) == 0) {
      std::size_t pos = 7;
      std::uint64_t jitter = 0;
      if (!parse_uint(entry, pos, jitter, error) || pos != entry.size()) {
        if (error != nullptr && error->empty()) *error = "bad jitter entry";
        return std::nullopt;
      }
      plan.jitter = static_cast<sim::Time>(jitter);
    } else if (entry.rfind("loss=", 0) == 0) {
      std::size_t pos = 5;
      std::uint64_t loss = 0;
      if (!parse_uint(entry, pos, loss, error) || pos != entry.size()) {
        if (error != nullptr && error->empty()) *error = "bad loss entry";
        return std::nullopt;
      }
      if (loss == 0 || loss >= 1000) {
        fail(error, "loss is per mille, 1..999: '" + std::string(entry) + "'");
        return std::nullopt;
      }
      plan.loss = static_cast<int>(loss);
    } else if (entry.rfind("crash@", 0) == 0) {
      if (!parse_fault(entry.substr(6), Fault::Kind::Crash, plan, error)) return std::nullopt;
    } else if (entry.rfind("part@", 0) == 0) {
      if (!parse_fault(entry.substr(5), Fault::Kind::Partition, plan, error)) {
        return std::nullopt;
      }
    } else {
      fail(error, "unknown plan entry '" + std::string(entry) + "'");
      return std::nullopt;
    }
    if (semi == std::string_view::npos) break;
    start = semi + 1;
  }
  return plan;
}

}  // namespace repli::explore
