#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "bingen/families.hpp"
#include "isa/assembler.hpp"
#include "isa/interpreter.hpp"
#include "isa/serialize.hpp"
#include "temp_path.hpp"

namespace {

using namespace gea;
using gea::util::Rng;

TEST(Serialize, RoundTripViaStream) {
  const auto p = isa::assemble(R"(
    func main
      movi r1, 7
      call f
      halt
    endfunc
    func f
      add r0, r1
      ret
    endfunc
  )");
  std::stringstream ss;
  isa::save_program(p, ss);
  const auto q = isa::load_program(ss);
  EXPECT_EQ(p, q);
}

TEST(Serialize, RoundTripViaFile) {
  Rng rng(3);
  const auto p = bingen::generate_program(bingen::Family::kMiraiLike, rng);
  const auto path = test::unique_temp_path("prog.bin");
  isa::save_program(p, path);
  const auto q = isa::load_program(path);
  EXPECT_EQ(p, q);
  EXPECT_TRUE(isa::execute(p).equivalent(isa::execute(q)));
  std::filesystem::remove(path);
}

class SerializeFamilyTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializeFamilyTest, EveryFamilyRoundTrips) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  for (auto family : bingen::benign_families()) {
    const auto p = bingen::generate_program(family, rng);
    std::stringstream ss;
    isa::save_program(p, ss);
    EXPECT_EQ(isa::load_program(ss), p);
  }
  for (auto family : bingen::malicious_families()) {
    const auto p = bingen::generate_program(family, rng);
    std::stringstream ss;
    isa::save_program(p, ss);
    EXPECT_EQ(isa::load_program(ss), p);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SerializeFamilyTest, ::testing::Range(0, 4));

TEST(Serialize, RejectsBadMagic) {
  std::stringstream ss;
  ss << "NOPE....................";
  EXPECT_THROW(isa::load_program(ss), std::runtime_error);
}

TEST(Serialize, RejectsTruncation) {
  const auto p = isa::assemble("func main\n halt\nendfunc");
  std::stringstream ss;
  isa::save_program(p, ss);
  const std::string full = ss.str();
  // Every strict prefix must be rejected, never crash.
  for (std::size_t len : {4u, 8u, 12u, 20u}) {
    std::stringstream cut(full.substr(0, std::min<std::size_t>(len, full.size() - 1)));
    EXPECT_THROW(isa::load_program(cut), std::runtime_error) << len;
  }
}

TEST(Serialize, RejectsUnsupportedVersion) {
  const auto p = isa::assemble("func main\n halt\nendfunc");
  std::stringstream ss;
  isa::save_program(p, ss);
  std::string data = ss.str();
  data[4] = 99;  // stomp the version field
  std::stringstream bad(data);
  EXPECT_THROW(isa::load_program(bad), std::runtime_error);
}

TEST(Serialize, RejectsCorruptedBody) {
  const auto p = isa::assemble("func main\n movi r1, 3\n halt\nendfunc");
  std::stringstream ss;
  isa::save_program(p, ss);
  std::string data = ss.str();
  // Corrupt the function-end field region: validation must catch it.
  data[data.size() - 1] = static_cast<char>(0x7f);
  std::stringstream bad(data);
  EXPECT_THROW(isa::load_program(bad), std::runtime_error);
}

TEST(Serialize, RejectsInvalidProgramOnSave) {
  isa::Program empty;
  std::stringstream ss;
  EXPECT_THROW(isa::save_program(empty, ss), std::runtime_error);
}

TEST(Serialize, RejectsMissingFile) {
  EXPECT_THROW(isa::load_program("/no_such_gea_program.bin"),
               std::runtime_error);
}

}  // namespace
