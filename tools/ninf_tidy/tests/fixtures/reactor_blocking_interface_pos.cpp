// Fixture: the reactor calls its service through an interface.  That
// call resolves to a pure virtual with no body, so the walk from loop()
// stops there; the override that runs on the reactor thread carries the
// annotation itself and is walked as a root.  Its blocking call must be
// flagged, also when the class is declared `final`.
#define NINF_REACTOR_CONTEXT
#define NINF_BLOCKING

void pollServer() NINF_BLOCKING;

class Service {
 public:
  virtual void handleFrame(int conn) = 0;

 protected:
  ~Service() = default;
};

class Reactor {
 public:
  explicit Reactor(Service& service) : service_(service) {}
  NINF_REACTOR_CONTEXT void loop() { service_.handleFrame(1); }

 private:
  Service& service_;
};

class Node final : private Service {
 private:
  void handleFrame(int conn) override NINF_REACTOR_CONTEXT;
  void helper();
};

void Node::handleFrame(int conn) {
  (void)conn;
  helper();
}

void Node::helper() { pollServer(); }
