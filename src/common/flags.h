// Minimal --key=value command-line flag parsing for the CLI tool.

#ifndef TPP_COMMON_FLAGS_H_
#define TPP_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace tpp {

/// Parsed command line: `prog [command] [--key=value ...] [positional...]`.
class ParsedArgs {
 public:
  /// Parses argv. Flags are "--key=value" or "--key value" or boolean
  /// "--key"; everything else is positional. Errors on duplicate flags.
  static Result<ParsedArgs> Parse(int argc, const char* const* argv);

  /// Positional arguments (excluding argv[0]).
  const std::vector<std::string>& positional() const { return positional_; }

  /// True if the flag was present at all.
  bool Has(const std::string& key) const { return flags_.count(key) > 0; }

  /// String flag with fallback.
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;

  /// Integer flag with fallback; returns an error on unparsable values.
  Result<int64_t> GetInt(const std::string& key, int64_t fallback) const;

  /// Double flag with fallback; returns an error on unparsable values.
  Result<double> GetDouble(const std::string& key, double fallback) const;

  /// Boolean flag: present without value or with "true"/"1".
  bool GetBool(const std::string& key, bool fallback = false) const;

  /// Flags that were never read by any Get*/Has call; used to report
  /// unknown flags to the user.
  std::vector<std::string> UnreadFlags() const;

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> read_;
};

/// Process-wide worker-thread budget for the parallel sweeps (index
/// builds, batch serving). Resolution order: an explicit
/// SetGlobalThreadCount(), else the TPP_THREADS environment variable, else
/// std::thread::hardware_concurrency(). Always returns >= 1.
int GlobalThreadCount();

/// Installs an explicit global thread count; values <= 0 reset to the
/// automatic TPP_THREADS / hardware-concurrency resolution.
void SetGlobalThreadCount(int threads);

/// Standard --threads flag hookup: when `args` carries --threads=N,
/// installs N via SetGlobalThreadCount (N == 0 resets to auto). Returns
/// InvalidArgument on unparsable values and on N outside
/// [0, ThreadPool::kMaxThreads]; absent flag leaves the setting untouched.
Status ApplyThreadsFlag(const ParsedArgs& args);

}  // namespace tpp

#endif  // TPP_COMMON_FLAGS_H_
