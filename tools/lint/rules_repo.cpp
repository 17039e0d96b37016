// Whole-repo coverage rule: it checks a cross-file invariant (modulus-taking
// kernels against the differential corpus), so it reads the relevant files
// directly rather than running per scanned file. Ported behavior-identical
// from v1.
#include <algorithm>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint_internal.hpp"

namespace g2g::lint::internal {

namespace fs = std::filesystem;

namespace {

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

// Differential-oracle completeness: every function declared in a src/crypto
// header that takes a modulus parameter (`const U256& m`/`modulus` or
// `const MontgomeryParams& params`) must be named in the Montgomery-vs-classic
// corpus in tests/crypto_fastpath_diff_test.cpp, so a future fast-path kernel
// cannot land without a pinned comparison against the schoolbook oracle.
void scan_mod_param_diff_coverage(const fs::path& root, std::vector<Finding>& out) {
  const fs::path include = root / "src/crypto/include";
  if (!fs::exists(include)) return;  // repo layout without the crypto layer

  std::string corpus_text;
  const fs::path corpus = root / "tests/crypto_fastpath_diff_test.cpp";
  if (fs::exists(corpus)) corpus_text = slurp(corpus);

  static const std::regex kModFn(
      R"((\w+)\s*\([^)]*const\s+(?:U256|MontgomeryParams)\s*&\s*(?:modulus|params|m)\s*[,)])");
  std::vector<fs::path> headers;
  for (const auto& entry : fs::recursive_directory_iterator(include)) {
    if (entry.is_regular_file() && entry.path().extension() == ".hpp") {
      headers.push_back(entry.path());
    }
  }
  std::sort(headers.begin(), headers.end());
  for (const fs::path& header : headers) {
    const std::string text = slurp(header);
    const std::string rel = fs::relative(header, root).generic_string();
    std::set<std::string> reported;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), kModFn);
         it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1].str();
      if (corpus_text.find(name) != std::string::npos) continue;
      if (!reported.insert(name).second) continue;
      const auto line = static_cast<std::size_t>(
                            std::count(text.begin(), text.begin() + it->position(), '\n')) +
                        1;
      out.push_back({rel, line, "mod-param-diff-coverage",
                     "'" + name +
                         "' takes a modulus parameter but is not named in the "
                         "differential corpus (tests/crypto_fastpath_diff_test.cpp); "
                         "modular kernels must be pinned to the classic oracle"});
    }
  }
}

}  // namespace g2g::lint::internal
