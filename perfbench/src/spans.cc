#include "spans.hh"

#include <algorithm>

namespace perfbench
{

std::map<std::string, double>
SpanRecorder::selfSecondsByLayer(int root) const
{
    std::map<std::string, double> self;
    // Spans are appended in open order, so a span's descendants
    // follow it; children are the spans whose parent is it.
    for (std::size_t i = static_cast<std::size_t>(root); i < spans_.size();
         ++i) {
        const Span &s = spans_[i];
        if (static_cast<int>(i) != root) {
            int p = s.parent;
            while (p > root)
                p = spans_[static_cast<std::size_t>(p)].parent;
            if (p != root)
                break;
        }
        double covered = 0;
        for (std::size_t j = i + 1; j < spans_.size(); ++j) {
            if (spans_[j].parent == static_cast<int>(i))
                covered += spans_[j].end - spans_[j].start;
        }
        self[layerOf(s.name)] += (s.end - s.start) - covered;
    }
    return self;
}

void
SpanRecorder::writeJson(std::ostream &os) const
{
    os << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"start_s\":" << s.start << ",\"end_s\":" << s.end
           << ",\"parent\":" << s.parent << "}";
    }
    os << "\n]\n";
}

} // namespace perfbench
