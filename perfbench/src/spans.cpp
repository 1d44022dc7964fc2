#include <sstream>

#include "perfbench.hpp"
#include "run/json_writer.hpp"

namespace sigvp::perfbench {

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanLog::open(std::string name, int scenario) {
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.scenario = scenario >= 0 || s.parent < 0 ? scenario : spans_[s.parent].scenario;
  s.start_us = now_us();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void SpanLog::close(int id, double work) {
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.end_us = now_us();
  s.work = work;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::string SpanLog::to_json() const {
  std::ostringstream os;
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\": \"" << run::json::escape(s.name)
       << "\", \"start_us\": " << run::json::number(s.start_us)
       << ", \"end_us\": " << run::json::number(s.end_us) << ", \"parent\": " << s.parent
       << ", \"scenario\": " << s.scenario << ", \"work\": " << run::json::number(s.work)
       << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace sigvp::perfbench
