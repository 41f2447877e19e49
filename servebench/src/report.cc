#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace servebench {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

JsonObject& JsonObject::Add(const std::string& key,
                            const std::string& raw_json) {
  fields_.emplace_back(key, raw_json);
  return *this;
}

std::string JsonObject::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double pos = q * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(const std::vector<double>& samples) {
  return Percentile(samples, 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

size_t SamplesNeededFor(double q) {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

void Report::Set(const std::string& name, const std::string& unit,
                 double value, const std::string& note) {
  metrics_[name] = Metric{unit, value, "", note};
}

void Report::Absent(const std::string& name, const std::string& unit,
                    const std::string& reason) {
  metrics_[name] = Metric{unit, std::nullopt, reason, ""};
}

void Report::SetPercentile(const std::string& name,
                           const std::vector<double>& ms, double q) {
  size_t need = SamplesNeededFor(q);
  if (ms.size() < need) {
    Absent(name, "ms",
           std::to_string(ms.size()) + " samples; at least " +
               std::to_string(need) + " are needed for 10 beyond the " +
               "percentile");
    return;
  }
  Set(name, "ms", Percentile(ms, q));
}

bool Report::Has(const std::string& name) const {
  auto it = metrics_.find(name);
  return it != metrics_.end() && it->second.value.has_value();
}

double Report::Value(const std::string& name) const {
  return Has(name) ? *metrics_.at(name).value : 0;
}

std::string Report::MetricsJson() const {
  JsonObject out;
  for (const auto& [name, m] : metrics_) {
    JsonObject entry;
    if (m.value.has_value()) {
      entry.Num("value", *m.value);
    } else {
      entry.Str("absent", m.absent_reason);
    }
    entry.Str("unit", m.unit);
    if (!m.note.empty()) entry.Str("note", m.note);
    out.Add(name, entry.ToString());
  }
  return out.ToString();
}

std::string Report::Lines() const {
  std::string out;
  for (const auto& [name, m] : metrics_) {
    char buf[64];
    if (m.value.has_value()) {
      std::snprintf(buf, sizeof(buf), "%.6g", *m.value);
      out += name + " " + buf + " " + m.unit +
             (m.note.empty() ? "" : " (" + m.note + ")") + "\n";
    } else {
      out += name + " absent (" + m.unit + "): " + m.absent_reason + "\n";
    }
  }
  return out;
}

}  // namespace servebench
