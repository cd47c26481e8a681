// Seeded violation: loaded as bench/harness_strict_flags.cpp; a harness
// reads its command line but never rejects the flags it did not read.

namespace {

int steps_of(const pcmd::Cli& cli) {  // a parameter is not a construction
  return static_cast<int>(cli.get_int("steps", 10));
}

}  // namespace

int main(int argc, char** argv) {
  const pcmd::Cli cli(argc, argv);  // line 13
  return steps_of(cli) > 0 ? 0 : 1;
}
