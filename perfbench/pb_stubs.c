/* System calls the benchmark needs and OCaml's Unix lacks: timer
   slack for the load generator, the calling thread's CPU time, peak
   resident set, and the type of the filesystem holding the durable
   store. */
#include <time.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* By default Linux lets a timed sleep overrun by up to 50 us, which
   would show up as generator lag in every open-loop send. */
value pb_set_timerslack_ns(value ns)
{
#ifdef PR_SET_TIMERSLACK
  return Val_bool(prctl(PR_SET_TIMERSLACK, (unsigned long)Long_val(ns), 0, 0, 0) == 0);
#else
  return Val_false;
#endif
}

/* CPU time the calling thread has run, in ns.  Time the thread was
   descheduled, or its virtual CPU was stolen by the host, is not in
   it. */
value pb_thread_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return Val_long(0);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

/* Peak resident set of the calling process in KiB (ru_maxrss, the
   same figure as VmHWM). */
value pb_peak_rss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}

/* statfs(2) f_type of [path], or -1. */
value pb_fs_magic(value path)
{
  CAMLparam1(path);
  struct statfs st;
  if (statfs(String_val(path), &st) != 0) CAMLreturn(Val_long(-1));
  CAMLreturn(Val_long((long)st.f_type));
}
