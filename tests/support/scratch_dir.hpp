#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace katric::test {

/// A temporary directory of the running test case's own, removed with it.
/// ctest runs cases in parallel processes, so a shared fixed directory would
/// let one case's cleanup delete another's files: the name carries the
/// suite, the case and the process id.
class ScratchDir {
public:
    ScratchDir() {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = std::string("katric_") + info->test_suite_name() + "_"
                           + info->name() + "_" + std::to_string(::getpid());
        std::replace(name.begin(), name.end(), '/', '_');  // parametrized names
        path_ = std::filesystem::temp_directory_path() / name;
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir() {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;

    [[nodiscard]] std::string file(const std::string& name) const {
        return (path_ / name).string();
    }

private:
    std::filesystem::path path_;
};

}  // namespace katric::test
