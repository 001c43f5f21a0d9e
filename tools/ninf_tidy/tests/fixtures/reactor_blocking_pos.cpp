// Fixture: reactor-context code that blocks — every pattern here must
// be flagged by the reactor-blocking check.
#define NINF_REACTOR_CONTEXT
#define NINF_BLOCKING

struct Mutex {
  explicit Mutex(const char*) {}
};
struct LockGuard {
  explicit LockGuard(Mutex&) {}
};
struct UniqueLock {
  explicit UniqueLock(Mutex&) {}
};
struct CondVar {
  void wait(UniqueLock&) {}
};

void blockingSend() NINF_BLOCKING;

struct Fixture {
  Mutex pending_fixture_mutex_{"fixture.pending"};
  Mutex solo_fixture_mutex_{"server.reactor.solo"};
  CondVar done_cv_;

  void postSolo(void (*fn)()) { (void)fn; }

  // Transitively reached from loop(): the non-leaf lock must be
  // flagged even though this helper carries no annotation itself.
  void helperTakesNonLeafLock() {
    LockGuard g(pending_fixture_mutex_);
  }

  NINF_REACTOR_CONTEXT void loop() {
    helperTakesNonLeafLock();
    blockingSend();  // annotated-blocking call
    UniqueLock lk(solo_fixture_mutex_);
    done_cv_.wait(lk);  // CondVar wait on the reactor thread
  }
};

void postSolo(int conn, void (*fn)());

void worker() {
  // The lambda runs on the reactor thread: its body is reactor context.
  postSolo(1, [] { blockingSend(); });
}

void postAt(double deadline, void (*fn)());

void armTimer() {
  // A timer callback runs on the reactor thread too.
  postAt(1.0, [] { blockingSend(); });
}
