#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double NowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

void OpTrace::Leaf(const std::string& name, double start, double seconds,
                   const std::string& source) {
  spans_.push_back(Span{name, start, seconds, source, false});
}

void OpTrace::ProgramLeaves(
    double start, const std::vector<std::pair<std::string, double>>& parts) {
  double t = start;
  for (const auto& [name, seconds] : parts) {
    if (seconds <= 0) continue;
    Leaf(name, t, seconds, "program-reported");
    t += seconds;
  }
}

void OpTrace::Outer(const std::string& name, double start, double seconds) {
  spans_.push_back(Span{name, start, seconds, "bench-outer", false});
}

void OpTrace::Replay(const std::string& name, double start, double seconds) {
  spans_.push_back(Span{name, start, seconds, "bench", true});
}

double OpTrace::LeafSeconds() const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (!s.replay && s.source != "bench-outer") sum += s.seconds;
  }
  return sum;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double TailPercentileFor(int basis_ops, int min_beyond) {
  for (double q : {99.0, 90.0, 75.0, 50.0}) {
    const double beyond = static_cast<double>(basis_ops) * (100.0 - q) / 100.0;
    if (beyond + 1e-9 >= min_beyond) return q;
  }
  return 50.0;
}

namespace {

double StatusFieldKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      std::istringstream ss(line.substr(prefix.size()));
      double kb = 0;
      ss >> kb;
      return kb;
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() { return StatusFieldKb("VmHWM") / 1024.0; }

double RssMb() { return StatusFieldKb("VmRSS") / 1024.0; }

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

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
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace perfbench
