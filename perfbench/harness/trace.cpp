#include "trace.hpp"

#include <map>

#include "json.hpp"

namespace perfbench {

namespace {

/// The calling thread's open spans, innermost last.
std::vector<int>& open_spans() {
  thread_local std::vector<int> open;
  return open;
}

}  // namespace

Tracer::Span::Span(Tracer* tracer, std::string_view name) : tracer_(tracer) {
  Record r;
  r.name = std::string(name);
  r.parent = open_spans().empty() ? -1 : open_spans().back();
  std::scoped_lock lock(tracer_->mu_);
  r.start_s = tracer_->now();
  index_ = static_cast<int>(tracer_->records_.size());
  tracer_->records_.push_back(std::move(r));
  open_spans().push_back(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  std::scoped_lock lock(tracer_->mu_);
  tracer_->records_[static_cast<std::size_t>(index_)].end_s = tracer_->now();
  open_spans().pop_back();
}

double Tracer::total(std::string_view name, std::size_t from,
                     std::size_t to) const {
  std::scoped_lock lock(mu_);
  double sum = 0.0;
  for (std::size_t i = from; i < to && i < records_.size(); ++i) {
    if (records_[i].name == name) sum += records_[i].end_s - records_[i].start_s;
  }
  return sum;
}

std::string Tracer::json() const {
  std::scoped_lock lock(mu_);
  std::vector<double> child_time(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      child_time[static_cast<std::size_t>(r.parent)] += r.end_s - r.start_s;
    }
  }
  std::map<std::string, double> self_s;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    self_s[r.name] += (r.end_s - r.start_s) - child_time[i];
  }
  JsonObject self;
  for (const auto& [name, s] : self_s) self.number(name, s);
  std::string spans = "[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    JsonObject o;
    o.string("name", r.name);
    o.integer("parent", r.parent);
    o.number("start_s", r.start_s);
    o.number("end_s", r.end_s);
    if (i > 0) spans += ",\n";
    spans += o.str();
  }
  spans += "]";
  JsonObject out;
  out.raw("self_s", self.str());
  out.raw("spans", spans);
  return out.str();
}

}  // namespace perfbench
