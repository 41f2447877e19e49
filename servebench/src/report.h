// Metric bookkeeping and JSON output for one benchmark run: every metric
// has a name and a unit, and is either measured or listed as absent with
// the reason it could not be measured on this workload.
#ifndef SERVEBENCH_REPORT_H_
#define SERVEBENCH_REPORT_H_

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace servebench {

/// JSON string literal of `s`, quotes included.
std::string JsonString(const std::string& s);
/// JSON number with every significant digit (17 for a double).
std::string JsonNumber(double v);

/// An ordered JSON object built field by field.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& raw_json);
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Add(key, JsonString(value));
  }
  JsonObject& Num(const std::string& key, double value) {
    return Add(key, JsonNumber(value));
  }
  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Percentile q in [0, 1] by linear interpolation; 0 for no samples.
double Percentile(std::vector<double> samples, double q);
double Median(const std::vector<double>& samples);
double Mean(const std::vector<double>& samples);

/// Samples a percentile needs so that at least 10 lie beyond it.
size_t SamplesNeededFor(double q);

struct Metric {
  std::string unit;
  std::optional<double> value;
  /// Why the metric is absent (empty when measured).
  std::string absent_reason;
  /// Why a measured value is what it is, e.g. why it is 0 on this workload.
  std::string note;
};

class Report {
 public:
  void Set(const std::string& name, const std::string& unit, double value,
           const std::string& note = "");
  void Absent(const std::string& name, const std::string& unit,
              const std::string& reason);
  /// Sets percentile q of `samples` in ms, or marks it absent when fewer
  /// than SamplesNeededFor(q) samples exist.
  void SetPercentile(const std::string& name, const std::vector<double>& ms,
                     double q);

  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  bool Has(const std::string& name) const;
  double Value(const std::string& name) const;

  /// {"name": {"value": v, "unit": u}} for measured metrics (plus "note"
  /// when set) and
  /// {"name": {"absent": reason, "unit": u}} for absent ones.
  std::string MetricsJson() const;

  /// One "name value unit" (or "name absent: reason") line per metric.
  std::string Lines() const;

 private:
  std::map<std::string, Metric> metrics_;
};

}  // namespace servebench

#endif  // SERVEBENCH_REPORT_H_
