// SIGPROF sampler, loaded with LD_PRELOAD: every 1 ms of process CPU time
// it records the interrupted PC and the frame-pointer chain above it, and
// at exit writes the samples and the executable mappings to $SIGPROF_OUT
// (default sigprof.out) for report.py. It sees what gprof cannot: libc and
// every other shared object. The chain is only as good as the frame
// pointers (build with -fno-omit-frame-pointer for inclusive shares); it is
// walked only inside the sampled thread's own stack, so a function without
// one can cut the walk short but never make it fault. x86-64 Linux only.
//
//   cc -O2 -shared -fPIC -o libsigprof.so scripts/sigprof/sigprof.c -ldl
//   LD_PRELOAD=./libsigprof.so SIGPROF_OUT=prof.out ./build/tools/paccbench
#define _GNU_SOURCE
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>

enum { kDepth = 32, kWords = 1 << 23 };  // 64 MiB, reserved lazily

static uintptr_t* buf;  // records: [n, pc, ret1, ..., ret(n-1)]
static size_t used;     // words taken, advanced atomically
// Initial-exec TLS: read from the signal handler, so no lazy allocation.
static __thread __attribute__((tls_model("initial-exec"))) uintptr_t
    stack_lo, stack_hi;

static void note_stack(void) {
  pthread_attr_t attr;
  void* base;
  size_t size;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  if (pthread_attr_getstack(&attr, &base, &size) == 0) {
    stack_lo = (uintptr_t)base;
    stack_hi = (uintptr_t)base + size;
  }
  pthread_attr_destroy(&attr);
}

static void on_prof(int sig, siginfo_t* si, void* ctx) {
  (void)sig, (void)si;
  const mcontext_t* mc = &((ucontext_t*)ctx)->uc_mcontext;
  uintptr_t rec[kDepth + 1];
  size_t n = 0;
  rec[++n] = (uintptr_t)mc->gregs[REG_RIP];
  uintptr_t fp = (uintptr_t)mc->gregs[REG_RBP];
  uintptr_t lo = (uintptr_t)mc->gregs[REG_RSP];
  while (n < kDepth && fp >= lo && fp % 8 == 0 && stack_lo <= lo &&
         fp + 16 <= stack_hi) {
    const uintptr_t* frame = (const uintptr_t*)fp;
    if (frame[1] == 0) break;
    rec[++n] = frame[1];
    lo = fp + 16;
    fp = frame[0];
  }
  rec[0] = n;
  const size_t at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
  if (at + n + 1 <= kWords) memcpy(buf + at, rec, (n + 1) * sizeof *rec);
}

struct start { void* (*fn)(void*); void* arg; };

static void* start_thread(void* p) {
  struct start s = *(struct start*)p;
  free(p);
  note_stack();
  return s.fn(s.arg);
}

int pthread_create(pthread_t* t, const pthread_attr_t* a,
                   void* (*fn)(void*), void* arg) {
  static int (*real)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                     void*);
  if (!real) *(void**)&real = dlsym(RTLD_NEXT, "pthread_create");
  struct start* s = malloc(sizeof *s);
  if (!s) return real(t, a, fn, arg);
  s->fn = fn, s->arg = arg;
  return real(t, a, start_thread, s);
}

__attribute__((constructor)) static void sigprof_start(void) {
  buf = mmap(NULL, kWords * sizeof *buf, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buf == MAP_FAILED) return;
  note_stack();
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  const struct itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void sigprof_stop(void) {
  if (buf == MAP_FAILED || !buf) return;
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char* path = getenv("SIGPROF_OUT");
  FILE* out = fopen(path ? path : "sigprof.out", "w");
  FILE* maps = fopen("/proc/self/maps", "r");
  if (!out || !maps) return;
  char line[4096];
  while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
  fclose(maps);
  const size_t end = used < kWords ? used : kWords;
  for (size_t i = 0; i < end && buf[i] > 0 && i + buf[i] < end;
       i += buf[i] + 1) {
    fputc('S', out);
    for (size_t k = 1; k <= buf[i]; ++k) fprintf(out, " %lx", buf[i + k]);
    fputc('\n', out);
  }
  fclose(out);
}
