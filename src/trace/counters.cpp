#include "trace/counters.hpp"

#include <algorithm>

namespace xbgas {

CounterRegistry::Entry* CounterRegistry::find(const std::string& name) {
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [&](const Entry& e) { return e.name == name; });
  return it == entries_.end() ? nullptr : &*it;
}

const CounterRegistry::Entry* CounterRegistry::find(
    const std::string& name) const {
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [&](const Entry& e) { return e.name == name; });
  return it == entries_.end() ? nullptr : &*it;
}

void CounterRegistry::set(const std::string& name, std::uint64_t value,
                          CounterClass cls) {
  if (Entry* e = find(name)) {
    e->value = value;
    e->cls = cls;
    return;
  }
  entries_.push_back(Entry{name, value, cls});
}

void CounterRegistry::add(const std::string& name, std::uint64_t delta) {
  if (Entry* e = find(name)) {
    e->value += delta;
    return;
  }
  entries_.push_back(Entry{name, delta});
}

std::optional<std::uint64_t> CounterRegistry::get(
    const std::string& name) const {
  const Entry* e = find(name);
  if (e == nullptr) return std::nullopt;
  return e->value;
}

std::vector<std::string> CounterRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.name);
  return out;
}

void CounterRegistry::dump_table(std::FILE* out) const {
  std::size_t width = 7;  // "counter"
  for (const auto& e : entries_) width = std::max(width, e.name.size());
  std::fprintf(out, "%-*s  value\n", static_cast<int>(width), "counter");
  for (const auto& e : entries_) {
    std::fprintf(out, "%-*s  %llu\n", static_cast<int>(width), e.name.c_str(),
                 static_cast<unsigned long long>(e.value));
  }
}

std::string CounterRegistry::json(std::optional<CounterClass> only) const {
  std::string out = "{";
  bool first = true;
  for (const auto& e : entries_) {
    if (only && e.cls != *only) continue;
    if (!first) out += ",";
    first = false;
    out += "\n  \"" + e.name + "\": " + std::to_string(e.value);
  }
  out += "\n}\n";
  return out;
}

void CounterRegistry::dump_json(std::FILE* out) const {
  const std::string s = json();
  std::fwrite(s.data(), 1, s.size(), out);
}

}  // namespace xbgas
