/* SCHED_IDLE for the benchmark's keep-warm spinners: a thread under
   this policy runs only when its CPU has nothing else to run, and any
   other thread that wakes up preempts it at once. */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

value rrsbench_sched_idle(value unit)
{
  struct sched_param param = { 0 };
  (void)unit;
  return Val_bool(sched_setscheduler(0, SCHED_IDLE, &param) == 0);
}
