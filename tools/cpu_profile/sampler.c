/* CPU sampler for machines without perf: LD_PRELOAD this library into a
 * process and it records a call stack every CPU_PROFILE_INTERVAL_US
 * microseconds of process CPU time (ITIMER_PROF, default 2000).  At exit
 * it writes /proc/self/maps and one line of hex return addresses per
 * sample (leaf first) to $CPU_PROFILE_OUT.<pid>; symbolize.py turns that
 * into tables.  Build: cc -O2 -shared -fPIC sampler.c -o libcpu_profile.so
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxDepth = 48, kMaxSamples = 1 << 17 };

typedef struct {
  int depth;
  void* pc[kMaxDepth];
} Sample;

static Sample* samples;
static atomic_int taken;

static void on_prof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const int slot = atomic_fetch_add(&taken, 1);
  if (slot >= kMaxSamples) return;
  Sample* s = &samples[slot];
  void* frames[kMaxDepth + 2];
  const int n = backtrace(frames, kMaxDepth + 2);
  /* The first frames are this handler and the signal trampoline: start
   * the stack at the interrupted instruction. */
  void* pc = (void*)((ucontext_t*)context)->uc_mcontext.gregs[REG_RIP];
  int first = 2;
  for (int i = 0; i < n; ++i) {
    if (frames[i] == pc) first = i + 1;
  }
  s->pc[0] = pc;
  int depth = 1;
  for (int i = first; i < n && depth < kMaxDepth; ++i) s->pc[depth++] = frames[i];
  s->depth = depth;
}

__attribute__((constructor)) static void start(void) {
  samples = calloc(kMaxSamples, sizeof(Sample));
  if (samples == NULL) return;
  void* warm[4];
  backtrace(warm, 4); /* loads the unwinder outside the signal handler */
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_sigaction = on_prof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &action, NULL);
  const char* env = getenv("CPU_PROFILE_INTERVAL_US");
  const long us = env != NULL ? atol(env) : 2000;
  struct itimerval timer = {{0, us}, {0, us}};
  setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void finish(void) {
  struct itimerval off;
  memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, NULL);
  if (samples == NULL) return;
  const char* prefix = getenv("CPU_PROFILE_OUT");
  char path[4096];
  snprintf(path, sizeof(path), "%s.%d", prefix != NULL ? prefix : "cpu_profile",
           (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  FILE* maps = fopen("/proc/self/maps", "r");
  char line[4096];
  while (maps != NULL && fgets(line, sizeof(line), maps) != NULL) {
    fprintf(out, "map %s", line);
  }
  if (maps != NULL) fclose(maps);
  int n = atomic_load(&taken);
  if (n > kMaxSamples) n = kMaxSamples;
  for (int i = 0; i < n; ++i) {
    fputs("sample", out);
    for (int d = 0; d < samples[i].depth; ++d) fprintf(out, " %p", samples[i].pc[d]);
    fputc('\n', out);
  }
  fclose(out);
}
