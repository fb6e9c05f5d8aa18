// The main() of every bench binary but micro_kernels. It runs the bench's
// own run() and turns an exception, such as a pipad::Error from a missing
// dataset file or an unwritable --trace-dir, into "<prog>: <what>" and
// exit code 1 (the CLI's runtime-error code) instead of an abort through
// std::terminate.
#include <cstdio>
#include <exception>

int run(int argc, char** argv);

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
}
