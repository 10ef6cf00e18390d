//===- observe/Metrics.cpp - named metrics registry --------------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "observe/Metrics.h"

#include "observe/Json.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>

using namespace f90y;
using namespace f90y::observe;

void MetricsRegistry::count(const std::string &Name, uint64_t Delta) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Metric &M = Metrics[Name];
  M.K = Kind::Counter;
  M.Count += Delta;
}

void MetricsRegistry::countCycles(const std::string &Name, double Delta) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Metric &M = Metrics[Name];
  M.K = Kind::Cycles;
  M.Value += Delta;
}

void MetricsRegistry::gauge(const std::string &Name, double V) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Metric &M = Metrics[Name];
  M.K = Kind::Gauge;
  M.Value = V;
}

unsigned MetricsRegistry::bucketOf(double V) {
  if (!(V > 1))
    return 0; // Also catches NaN and negatives.
  double Ceil = std::ceil(V);
  if (Ceil >= 9.223372036854776e18)
    return 63;
  // Bucket i holds (2^(i-1), 2^i].
  return std::min(63u, static_cast<unsigned>(std::bit_width(
                           static_cast<uint64_t>(Ceil) - 1)));
}

void MetricsRegistry::observe(const std::string &Name, double V) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Metric &M = Metrics[Name];
  M.K = Kind::Histogram;
  M.Count += 1;
  M.Value += V;
  M.Buckets[bucketOf(V)] += 1;
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<Sample> Out;
  Out.reserve(Metrics.size());
  for (const auto &[Name, M] : Metrics) {
    Sample S;
    S.Name = Name;
    S.Kind = static_cast<uint8_t>(M.K);
    S.Count = M.Count;
    S.Value = M.Value;
    if (M.K == Kind::Histogram)
      S.Buckets.assign(M.Buckets, M.Buckets + 64);
    Out.push_back(std::move(S));
  }
  return Out;
}

void MetricsRegistry::restore(const std::vector<Sample> &Samples) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Metrics.clear();
  for (const Sample &S : Samples) {
    if (S.Kind > 3)
      continue;
    if (S.Kind == 3 && S.Buckets.size() != 64)
      continue;
    Metric M;
    M.K = static_cast<Kind>(S.Kind);
    M.Count = S.Count;
    M.Value = S.Value;
    if (M.K == Kind::Histogram)
      for (size_t I = 0; I < 64; ++I)
        M.Buckets[I] = S.Buckets[I];
    Metrics[S.Name] = M;
  }
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Metrics.size();
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Metrics.clear();
}

double MetricsRegistry::value(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Metrics.find(Name);
  if (It == Metrics.end())
    return 0;
  const Metric &M = It->second;
  return M.K == Kind::Counter ? static_cast<double>(M.Count) : M.Value;
}

std::string MetricsRegistry::exportText() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::string Out;
  for (const auto &[Name, M] : Metrics) {
    char Line[64];
    std::snprintf(Line, sizeof(Line), "%-36s ", Name.c_str());
    Out += Name.size() < 36 ? Line : (Name + " ");
    switch (M.K) {
    case Kind::Counter:
      Out += "counter " + json::number(M.Count);
      break;
    case Kind::Cycles:
      Out += "cycles " + json::number(M.Value);
      break;
    case Kind::Gauge:
      Out += "gauge " + json::number(M.Value);
      break;
    case Kind::Histogram: {
      Out += "hist count=" + json::number(M.Count) +
             " sum=" + json::number(M.Value) + " buckets=[";
      bool First = true;
      for (unsigned B = 0; B < 64; ++B) {
        if (!M.Buckets[B])
          continue;
        if (!First)
          Out += ',';
        First = false;
        Out += std::to_string(B) + ":" + json::number(M.Buckets[B]);
      }
      Out += ']';
      break;
    }
    }
    Out += '\n';
  }
  return Out;
}

std::string MetricsRegistry::exportJson() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::string Out = "{\"metrics\":{";
  bool FirstMetric = true;
  for (const auto &[Name, M] : Metrics) {
    if (!FirstMetric)
      Out += ',';
    FirstMetric = false;
    Out.append("\n").append(json::quote(Name)).append(":{\"type\":");
    switch (M.K) {
    case Kind::Counter:
      Out += "\"counter\",\"value\":" + json::number(M.Count);
      break;
    case Kind::Cycles:
      Out += "\"cycles\",\"value\":" + json::number(M.Value);
      break;
    case Kind::Gauge:
      Out += "\"gauge\",\"value\":" + json::number(M.Value);
      break;
    case Kind::Histogram: {
      Out += "\"histogram\",\"count\":" + json::number(M.Count) +
             ",\"sum\":" + json::number(M.Value) + ",\"buckets\":{";
      bool First = true;
      for (unsigned B = 0; B < 64; ++B) {
        if (!M.Buckets[B])
          continue;
        if (!First)
          Out += ',';
        First = false;
        Out.append("\"").append(std::to_string(B)).append("\":").append(
            json::number(M.Buckets[B]));
      }
      Out += '}';
      break;
    }
    }
    Out += '}';
  }
  Out += "\n}}\n";
  return Out;
}

bool MetricsRegistry::writeJson(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << exportJson();
  return static_cast<bool>(Out);
}
