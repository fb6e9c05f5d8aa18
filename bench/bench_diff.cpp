// bench_diff: compare two bench-to-JSON records and flag perf regressions.
//
//   bench_diff BASELINE.json FRESH.json [--threshold=0.15] [--metric=epoch_us]
//              [--summary=FILE]
//
// --summary=FILE appends the comparison as a GitHub-flavored markdown table
// (CI points it at $GITHUB_STEP_SUMMARY so the perf gate is readable on the
// run page without downloading artifacts).
//
// Both files must be JsonReport documents (see bench_util.hpp): a "records"
// array of flat objects keyed by (dataset, model, method). For every record
// present in the baseline, the fresh value of --metric may exceed the
// baseline by at most --threshold (fractional; 0.15 = +15%). Records missing
// from the fresh file also fail; records new in the fresh file are reported
// but pass (the trajectory can grow). Exit codes: 0 ok, 1 regression or
// missing record, 2 usage/parse error — so CI can gate on it.
//
// Documents are parsed with api::Json, the codec that also builds and
// writes them (api::bench_record, analyze::report_json,
// api::write_document), so any record — escaped dataset names included —
// is read back exactly. Each record's string and number fields are kept;
// other value types are ignored.
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/json.hpp"
#include "common/error.hpp"

namespace {

using pipad::api::Json;

struct Record {
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;
};

struct Document {
  std::vector<Record> records;
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "bench_diff: %s\n", msg.c_str());
  std::exit(2);
}

/// Highest record schema_version this tool understands. Records without
/// the field (pre-versioning baselines) and records at or below this
/// version are accepted; newer records fail loudly instead of being
/// compared under stale semantics.
constexpr int kMaxRecordSchemaVersion = 2;

void check_schema(const std::string& path, const Record& r) {
  const auto it = r.numbers.find("schema_version");
  if (it == r.numbers.end()) return;  // Legacy record: fine.
  if (it->second > kMaxRecordSchemaVersion) {
    die(path + ": record schema_version " +
        std::to_string(it->second) +
        " is newer than this bench_diff supports (" +
        std::to_string(kMaxRecordSchemaVersion) + ")");
  }
}

Document parse_document(const std::string& path) {
  std::ifstream is(path);
  if (!is) die("cannot open " + path);
  std::stringstream buf;
  buf << is.rdbuf();
  Json json;
  try {
    json = Json::parse(buf.str());
  } catch (const pipad::Error& e) {
    die(path + ": " + e.what());
  }
  const Json* records = json.find("records");
  if (records == nullptr || !records->is_array()) {
    die(path + ": no \"records\" array");
  }
  Document doc;
  for (const Json& item : records->items()) {
    if (!item.is_object()) die(path + ": expected record object");
    Record r;
    for (const auto& [key, value] : item.members()) {
      if (value.is_string()) r.strings[key] = value.as_string();
      if (value.is_number()) r.numbers[key] = value.as_number();
    }
    check_schema(path, r);
    doc.records.push_back(std::move(r));
  }
  return doc;
}

std::string record_key(const Record& r) {
  const auto get = [&](const char* k) {
    const auto it = r.strings.find(k);
    return it == r.strings.end() ? std::string("?") : it->second;
  };
  return get("dataset") + " | " + get("model") + " | " + get("method");
}

void usage_and_exit(const char* prog) {
  std::fprintf(stderr,
               "usage: %s BASELINE.json FRESH.json [--threshold=F]"
               " [--metric=NAME] [--min-delta-us=N]\n"
               "       [--summary=FILE]\n"
               "  --threshold=F      allowed fractional increase"
               " (default 0.15)\n"
               "  --metric=NAME      numeric record field to compare"
               " (default epoch_us)\n"
               "  --min-delta-us=N   ignore regressions whose absolute"
               " increase is below N\n"
               "                     (floor for noisy tiny records;"
               " default 0)\n"
               "  --summary=FILE     append the comparison as a markdown"
               " table (for\n"
               "                     $GITHUB_STEP_SUMMARY)\n",
               prog);
  std::exit(2);
}

/// Markdown-escape a record key ('|' delimits table cells).
std::string md_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '|') out += "\\|";
    else out.push_back(c);
  }
  return out;
}

/// printf into a std::string, sized dynamically — record keys embed
/// user-controlled dataset file stems, and a truncated row would corrupt
/// the markdown table.
std::string strprintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(needed > 0 ? static_cast<std::size_t>(needed) : 0, '\0');
  if (needed > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path, fresh_path;
  double threshold = 0.15;
  double min_delta_us = 0.0;
  std::string metric = "epoch_us";
  std::string summary_path;

  std::vector<std::string> positional;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--threshold=", 0) == 0) {
      char* end = nullptr;
      threshold = std::strtod(arg.c_str() + 12, &end);
      if (end == nullptr || *end != '\0' || threshold < 0.0) {
        usage_and_exit(argv[0]);
      }
    } else if (arg.rfind("--min-delta-us=", 0) == 0) {
      char* end = nullptr;
      min_delta_us = std::strtod(arg.c_str() + 15, &end);
      if (end == nullptr || *end != '\0' || min_delta_us < 0.0) {
        usage_and_exit(argv[0]);
      }
    } else if (arg.rfind("--metric=", 0) == 0) {
      metric = arg.substr(9);
      if (metric.empty()) usage_and_exit(argv[0]);
    } else if (arg.rfind("--summary=", 0) == 0) {
      summary_path = arg.substr(10);
      if (summary_path.empty()) usage_and_exit(argv[0]);
    } else if (arg.rfind("--", 0) == 0) {
      usage_and_exit(argv[0]);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) usage_and_exit(argv[0]);
  baseline_path = positional[0];
  fresh_path = positional[1];

  const Document base = parse_document(baseline_path);
  const Document fresh = parse_document(fresh_path);
  if (base.records.empty()) die(baseline_path + ": no records");

  std::map<std::string, const Record*> fresh_by_key;
  for (const auto& r : fresh.records) fresh_by_key[record_key(r)] = &r;
  std::map<std::string, const Record*> base_by_key;
  for (const auto& r : base.records) base_by_key[record_key(r)] = &r;

  std::printf("%-44s %12s %12s %8s\n", "record", "baseline", "fresh",
              "delta");
  std::string md = "| record | baseline | fresh | delta | status |\n"
                   "|---|---:|---:|---:|---|\n";
  int regressions = 0, missing = 0, compared = 0;
  for (const auto& r : base.records) {
    const std::string key = record_key(r);
    const auto bit = r.numbers.find(metric);
    if (bit == r.numbers.end()) {
      die(baseline_path + ": record '" + key + "' has no metric '" + metric +
          "'");
    }
    const auto fit = fresh_by_key.find(key);
    if (fit == fresh_by_key.end()) {
      std::printf("%-44s %12.1f %12s  MISSING\n", key.c_str(), bit->second,
                  "-");
      md += strprintf("| %s | %.1f | - | - | **MISSING** |\n",
                      md_escape(key).c_str(), bit->second);
      ++missing;
      continue;
    }
    const auto fnum = fit->second->numbers.find(metric);
    if (fnum == fit->second->numbers.end()) {
      die(fresh_path + ": record '" + key + "' has no metric '" + metric +
          "'");
    }
    const double b = bit->second;
    const double f = fnum->second;
    const double delta = b > 0.0 ? f / b - 1.0 : 0.0;
    const bool bad = delta > threshold && (f - b) > min_delta_us;
    std::printf("%-44s %12.1f %12.1f %+7.1f%%%s\n", key.c_str(), b, f,
                100.0 * delta, bad ? "  REGRESSION" : "");
    md += strprintf("| %s | %.1f | %.1f | %+.1f%% | %s |\n",
                    md_escape(key).c_str(), b, f, 100.0 * delta,
                    bad ? "**REGRESSION**" : "ok");
    ++compared;
    if (bad) ++regressions;
  }
  int added = 0;
  for (const auto& r : fresh.records) {
    if (base_by_key.count(record_key(r)) == 0) {
      const double v = r.numbers.count(metric) ? r.numbers.at(metric) : 0.0;
      std::printf("%-44s %12s %12.1f  new\n", record_key(r).c_str(), "-", v);
      md += strprintf("| %s | - | %.1f | - | new |\n",
                      md_escape(record_key(r)).c_str(), v);
      ++added;
    }
  }

  const bool failed = regressions > 0 || missing > 0;
  std::printf(
      "\n%d compared on %s (threshold +%.0f%%): %d regression(s), "
      "%d missing, %d new\n",
      compared, metric.c_str(), 100.0 * threshold, regressions, missing,
      added);
  if (!summary_path.empty()) {
    // Append: several gates share one $GITHUB_STEP_SUMMARY file.
    std::ofstream os(summary_path, std::ios::app);
    if (!os) die("cannot open " + summary_path + " for appending");
    os << strprintf("### bench_diff: %s on `%s` (threshold +%.0f%%)\n\n",
                    failed ? ":x: FAIL" : ":white_check_mark: OK",
                    metric.c_str(), 100.0 * threshold)
       << md
       << strprintf("\n%d compared: %d regression(s), %d missing, %d new\n\n",
                    compared, regressions, missing, added);
    os.flush();
    if (!os) die("write failed: " + summary_path);
  }
  if (failed) {
    std::fprintf(stderr, "bench_diff: FAIL\n");
    return 1;
  }
  std::printf("bench_diff: OK\n");
  return 0;
}
