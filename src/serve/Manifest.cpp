//===- serve/Manifest.cpp - line-delimited JSON job manifests ----------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"

#include "observe/Json.h"
#include "support/FileIO.h"

#include <map>
#include <set>

using namespace f90y;
using namespace f90y::serve;
namespace js = f90y::observe::json;

namespace {

/// Parses one manifest job object into \p Job; false with Error on any
/// malformed or unknown member (strict, matching the f90yc flag
/// philosophy: silent acceptance hides typos behind valid-looking jobs).
/// Every key this service does not own is a knob of the shared table.
bool parseJobObject(const js::Value &Obj, const std::string &BaseDir,
                    JobSpec &Job, std::string &Error) {
  bool HaveSource = false, HavePath = false;
  for (const auto &[Key, V] : Obj.Obj) {
    if (Key == "id") {
      if (!V.isString() || V.Str.empty())
        return Error = "'id' must be a non-empty string", false;
      Job.Id = V.Str;
    } else if (Key == "source") {
      if (!V.isString())
        return Error = "'source' must be a string", false;
      Job.Source = V.Str;
      HaveSource = true;
    } else if (Key == "source_path") {
      if (!V.isString() || V.Str.empty())
        return Error = "'source_path' must be a non-empty string", false;
      Job.SourcePath = V.Str;
      HavePath = true;
    } else if (Key == "deadline_ms") {
      if (!driver::parseNumber(Key, V, 0, UINT64_MAX, Job.DeadlineMs, Error))
        return false;
    } else if (Key == "retries") {
      if (!driver::parseNumber(Key, V, 0, 16, Job.Retries, Error))
        return false;
    } else if (!driver::applyKey(Job.Cfg, Key, V, Error)) {
      return false;
    }
  }
  if (HaveSource == HavePath)
    return Error = "exactly one of 'source' and 'source_path' is required",
           false;
  if (HavePath) {
    std::string Path = Job.SourcePath;
    if (!Path.empty() && Path[0] != '/' && !BaseDir.empty())
      Path = BaseDir + "/" + Path;
    std::string ReadError;
    if (!support::readFile(Path, Job.Source, &ReadError))
      return Error = "source_path: " + ReadError, false;
  }
  return true;
}

} // namespace

std::vector<JobSpec> serve::parseManifest(const std::string &Text,
                                          const std::string &BaseDir) {
  std::vector<JobSpec> Jobs;
  size_t Pos = 0, LineNo = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    ++LineNo;
    size_t First = Line.find_first_not_of(" \t\r");
    if (First == std::string::npos || Line[First] == '#')
      continue;

    JobSpec Job;
    js::Value V;
    std::string Error;
    if (!js::parse(Line, V, Error)) {
      Job.Valid = false;
      Job.ParseError =
          "line " + std::to_string(LineNo) + ": malformed JSON: " + Error;
    } else if (!V.isObject()) {
      Job.Valid = false;
      Job.ParseError =
          "line " + std::to_string(LineNo) + ": job must be a JSON object";
    } else if (!parseJobObject(V, BaseDir, Job, Error)) {
      Job.Valid = false;
      Job.ParseError = "line " + std::to_string(LineNo) + ": " + Error;
    }
    if (Job.Id.empty())
      Job.Id = "job" + std::to_string(Jobs.size() + 1);
    Jobs.push_back(std::move(Job));
  }

  // Uniquify duplicate ids in manifest order ("x", "x~2", "x~3") so two
  // jobs never contend for one output path and records stay addressable.
  std::map<std::string, unsigned> Seen;
  std::set<std::string> Used;
  for (JobSpec &J : Jobs)
    Used.insert(J.Id);
  for (JobSpec &J : Jobs) {
    unsigned &N = Seen[J.Id];
    ++N;
    if (N == 1)
      continue;
    std::string Candidate;
    unsigned Suffix = N;
    do {
      Candidate = J.Id + "~" + std::to_string(Suffix++);
    } while (!Used.insert(Candidate).second);
    J.Id = Candidate;
  }
  return Jobs;
}
