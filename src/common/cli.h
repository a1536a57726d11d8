#ifndef WIMPI_COMMON_CLI_H_
#define WIMPI_COMMON_CLI_H_

#include <map>
#include <string>
#include <vector>

namespace wimpi {

// Minimal command-line flag parser for the benchmark and example binaries.
// Accepts "--name=value" and "--name value"; bare "--name" is "true".
// GetInt/GetDouble/GetBool print "invalid value for --<name>: '<text>'"
// and exit 2 when a present value does not parse completely and in range
// (booleans: true/false/1/0/yes/no).
class CommandLine {
 public:
  CommandLine(int argc, char** argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& def) const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace wimpi

#endif  // WIMPI_COMMON_CLI_H_
