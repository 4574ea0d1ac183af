/* A monotonic nanosecond clock: Unix.gettimeofday only resolves
   microseconds, too coarse for app-closure spans of a few. */

#include <time.h>
#include <caml/mlvalues.h>

value hippo_bench_clock_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + ts.tv_nsec);
}
