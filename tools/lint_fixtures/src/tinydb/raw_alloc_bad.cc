// Fixture: src/tinydb is a hot-path glob too, so the raw allocations below
// must trigger `raw-alloc`; the placement new must not.
#include <cstdlib>
#include <new>

namespace fixture {

struct Row {
  int value;
};

void Violations() {
  Row* a = new Row{1};
  void* b = malloc(sizeof(Row));
  alignas(Row) unsigned char buf[sizeof(Row)];
  Row* c = ::new (static_cast<void*>(buf)) Row{2};  // placement: fine
  c->~Row();
  delete a;
  free(b);
}

}  // namespace fixture
