/* The default span and request clock: CLOCK_MONOTONIC in seconds. It
   never goes back, unlike the time of day, and counts time spent
   blocked, unlike CPU time. */

#define CAML_NAME_SPACE
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double cso_obs_monotonic_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value cso_obs_monotonic(value unit)
{
  return caml_copy_double(cso_obs_monotonic_unboxed(unit));
}
