#include "report.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

constexpr std::size_t kMaxProblems = 20;

std::string metric_json(const Metric& m) {
  std::string s = "{\"name\": \"" + json_escape(m.name) +
                  "\", \"value\": " + json_num(m.value) + ", \"unit\": \"" +
                  json_escape(m.unit) + "\", \"better\": \"" + m.better + "\"";
  if (m.samples >= 0) s += ", \"samples\": " + std::to_string(m.samples);
  if (!m.note.empty()) s += ", \"note\": \"" + json_escape(m.note) + "\"";
  return s + "}";
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Report::e2e(const std::string& name, double value, const std::string& unit,
                 const std::string& better, std::int64_t samples,
                 const std::string& note) {
  std::lock_guard lock(mutex_);
  e2e_.push_back({name, value, unit, better, samples, note});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit, const std::string& better,
                   std::int64_t samples, const std::string& note) {
  std::lock_guard lock(mutex_);
  layers_.push_back({name, value, unit, better, samples, note});
}

void Report::layer_timing(const std::string& name, const Summary& s,
                          const std::string& unit) {
  layer(name + ".p50", s.p50, unit, "lower", static_cast<std::int64_t>(s.samples));
  std::string note;
  if (!s.p99_supported) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "fewer than %zu samples beyond p99; highest supported: p%g",
                  kMinBeyond, s.tail_p);
    note = buf;
  }
  layer(name + ".p99", s.p99, unit, "lower", static_cast<std::int64_t>(s.samples),
        note);
}

void Report::absent(const std::string& name, const std::string& reason) {
  std::lock_guard lock(mutex_);
  absent_.emplace_back(name, reason);
}

void Report::context(const std::string& key, const std::string& json) {
  std::lock_guard lock(mutex_);
  context_.emplace_back(key, json);
}

void Report::context_str(const std::string& key, const std::string& value) {
  std::string quoted(1, '"');
  quoted += json_escape(value);
  quoted += '"';
  context(key, quoted);
}

void Report::context_num(const std::string& key, double value) {
  context(key, json_num(value));
}

void Report::attempt(std::uint64_t n) {
  std::lock_guard lock(mutex_);
  attempted_ += n;
}

void Report::fail(std::uint64_t n, const std::string& why) {
  std::lock_guard lock(mutex_);
  failed_ += n;
  if (problems_.size() < kMaxProblems) problems_.push_back(why);
}

void Report::mismatch(const std::string& what) {
  std::lock_guard lock(mutex_);
  ++failed_;
  ++mismatches_;
  if (problems_.size() < kMaxProblems) problems_.push_back("mismatch: " + what);
}

bool Report::correct() const {
  std::lock_guard lock(mutex_);
  return mismatches_ == 0 && failed_ == 0 && attempted_ > 0;
}

std::string Report::to_json() const {
  const bool ok = correct();
  std::lock_guard lock(mutex_);
  std::string s = "{\"report\": {\"correct\": ";
  s += ok ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted_);
  s += ", \"failed\": " + std::to_string(failed_);
  s += ", \"mismatches\": " + std::to_string(mismatches_);
  s += ", \"fail_frac\": " +
       json_num(attempted_ == 0 ? 1.0
                                : static_cast<double>(failed_) /
                                      static_cast<double>(attempted_));
  s += ", \"problems\": [";
  for (std::size_t i = 0; i < problems_.size(); ++i) {
    s += i ? ", \"" : "\"";
    s += json_escape(problems_[i]);
    s += '"';
  }
  s += "], \"context\": {";
  for (std::size_t i = 0; i < context_.size(); ++i) {
    s += i ? ", \"" : "\"";
    s += json_escape(context_[i].first);
    s += "\": ";
    s += context_[i].second;
  }
  s += "}, \"end_to_end\": [";
  for (std::size_t i = 0; i < e2e_.size(); ++i) {
    s += i ? ", " : "";
    s += metric_json(e2e_[i]);
  }
  s += "], \"per_layer\": [";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    s += i ? ", " : "";
    s += metric_json(layers_[i]);
  }
  s += "], \"absent\": [";
  for (std::size_t i = 0; i < absent_.size(); ++i) {
    s += i ? ", {\"name\": \"" : "{\"name\": \"";
    s += json_escape(absent_[i].first);
    s += "\", \"reason\": \"";
    s += json_escape(absent_[i].second);
    s += "\"}";
  }
  s += "]}}";
  return s;
}

}  // namespace perfbench
