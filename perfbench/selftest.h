// Tests of the benchmark's own machinery: self time on a synthetic span
// tree, the correctness gate catching a planted wrong answer, and a
// small-scale run of every workload whose counts repeat exactly for a
// fixed seed.
#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

#include <string>

namespace perfbench {

// Returns 0 when every check passes; prints each failure to stderr.
int RunSelfTest(const std::string& data_dir);

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_
