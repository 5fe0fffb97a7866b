#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <sstream>
#include <thread>

#include "nn/inference_engine.h"

namespace perfbench {

double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double TailLevel(uint64_t n) {
  if (n <= 10) return 0.5;
  const double level = 1.0 - 10.0 / static_cast<double>(n);
  return std::max(0.5, std::min(0.99, level));
}

PosKey KeyOf(const Point& p) {
  PosKey k;
  std::memcpy(&k.x, &p.x, sizeof(k.x));
  std::memcpy(&k.y, &p.y, sizeof(k.y));
  return k;
}

void Checker::Expect(bool ok, const std::string& what) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (ok) return;
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  if (first_failures_.size() < 8) first_failures_.push_back(what);
}

void Checker::Point(const rsmi::Point& q, const std::optional<PointEntry>& r0,
                    bool may_miss) {
  std::optional<PointEntry> r = r0;
  if (TakePlant() && r.has_value()) r->pt.x += 1e-3;
  const bool ok = r.has_value() ? rsmi::SamePosition(r->pt, q) : may_miss;
  Expect(ok, "point lookup of a stored position did not hit it exactly");
}

void Checker::Window(const Rect& w, const std::vector<rsmi::Point>& r0) {
  const std::vector<rsmi::Point>* r = &r0;
  std::vector<rsmi::Point> planted;
  if (TakePlant()) {
    planted = r0;
    planted.push_back({w.hi.x + 0.5, w.hi.y + 0.5});
    r = &planted;
  }
  bool ok = true;
  for (const rsmi::Point& p : *r) {
    if (!w.Contains(p) || !Known(p)) {
      ok = false;
      break;
    }
  }
  Expect(ok, "window answer holds a point outside the window or the data");
}

void Checker::Knn(const rsmi::Point& q, size_t k, size_t live,
                  const std::vector<rsmi::Point>& r0) {
  const std::vector<rsmi::Point>* r = &r0;
  std::vector<rsmi::Point> planted;
  if (TakePlant() && r0.size() >= 2) {
    planted = r0;
    std::reverse(planted.begin(), planted.end());
    r = &planted;
  }
  bool ok = r->size() == std::min(k, live);
  double last = -1.0;
  for (const rsmi::Point& p : *r) {
    const double d = rsmi::SquaredDist(p, q);
    if (d < last || !Known(p)) ok = false;
    last = d;
  }
  Expect(ok, "kNN answer has the wrong size, order, or an unknown point");
}

void Checker::Count(uint64_t attempted, uint64_t failed,
                    const std::string& what) {
  attempted_.fetch_add(attempted, std::memory_order_relaxed);
  if (failed == 0) return;
  failed_.fetch_add(failed, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  if (first_failures_.size() < 8) first_failures_.push_back(what);
}

std::vector<std::string> Checker::failures() const {
  std::lock_guard<std::mutex> lk(mu_);
  return first_failures_;
}

std::vector<Span>* SpanStore::NewBuffer(size_t reserve) {
  std::lock_guard<std::mutex> lk(mu_);
  buffers_.push_back(std::make_unique<std::vector<Span>>());
  buffers_.back()->reserve(reserve);
  return buffers_.back().get();
}

std::vector<double> SpanStore::DurationsNs(const char* name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const auto& b : buffers_) {
    for (const Span& s : *b) {
      if (std::strcmp(s.name, name) == 0) {
        out.push_back(static_cast<double>(s.dur_ns()));
      }
    }
  }
  return out;
}

size_t SpanStore::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t n = 0;
  for (const auto& b : buffers_) n += b->size();
  return n;
}

bool SpanStore::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream out(path);
  if (!out) return false;
  uint64_t origin = UINT64_MAX;
  for (const auto& b : buffers_) {
    for (const Span& s : *b) origin = std::min(origin, s.start_ns);
  }
  for (const auto& b : buffers_) {
    for (const Span& s : *b) {
      out << "{\"name\":\"" << s.name << "\",\"op\":" << s.op
          << ",\"thread\":" << s.thread << ",\"parent\":" << s.parent
          << ",\"start_ns\":" << (s.start_ns - origin)
          << ",\"end_ns\":" << (s.end_ns - origin) << "}\n";
    }
  }
  return static_cast<bool>(out);
}

double ProcStatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t flen = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, flen, field) == 0 && line.size() > flen &&
        line[flen] == ':') {
      return std::strtod(line.c_str() + flen + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

MemoryUse CurrentMemoryUse() {
  const struct mallinfo2 mi = ::mallinfo2();
  return {static_cast<double>(mi.uordblks + mi.hblkhd) / (1 << 20),
          ProcStatusMb("RssFile")};
}

namespace {

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  return s;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 10, "model name") == 0) {
      const size_t c = line.find(':');
      if (c != std::string::npos) return line.substr(c + 2);
    }
  }
  return "unknown";
}

}  // namespace

std::string HostJson() {
  std::ostringstream o;
  o << "{\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"cpu_model\":" << JsonString(CpuModel());
  // Per-core cache sizes of CPU 0, by level (sysfs; absent in some VMs).
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    const std::string level = ReadFirstLine(dir + "/level");
    if (level.empty()) break;
    const std::string type = ReadFirstLine(dir + "/type");
    if (type == "Instruction") continue;
    o << ",\"l" << level << (type == "Data" ? "d" : "")
      << "\":" << JsonString(ReadFirstLine(dir + "/size"));
  }
  o << ",\"inference_kernel\":"
    << JsonString(rsmi::ActiveInferenceKernelDescription()) << "}";
  return o.str();
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(ms[i].name) + ": {\"value\": " + Num(ms[i].value) +
           ", \"unit\": " + JsonString(ms[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace perfbench
