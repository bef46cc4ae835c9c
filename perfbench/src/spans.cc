#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "obs/trace.hh"

namespace perfbench {

std::string
layerOf(const char *name)
{
    std::string s(name);
    return s.substr(0, s.find('.'));
}

SelfTimes
selfTimes(const std::vector<Span> &spans)
{
    std::vector<i64> self(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.end < s.start)
            throw std::logic_error(std::string("span ") + s.name +
                                   " ends before it starts");
        self[i] += static_cast<i64>(s.end - s.start);
        if (s.parent < 0)
            continue;
        const Span &p = spans.at(static_cast<size_t>(s.parent));
        if (p.lane != s.lane || s.start < p.start || s.end > p.end)
            throw std::logic_error(std::string("span ") + s.name +
                                   " is not inside its parent " + p.name);
        self[static_cast<size_t>(s.parent)] -=
            static_cast<i64>(s.end - s.start);
    }
    SelfTimes out;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (self[i] < 0)
            throw std::logic_error(std::string("children of span ") +
                                   s.name + " overlap");
        out.selfNs[layerOf(s.name)] += static_cast<u64>(self[i]);
        out.selfByName[s.name] += static_cast<u64>(self[i]);
        out.totalNs[s.name] += s.end - s.start;
        out.count[s.name] += 1;
        if (s.parent < 0)
            out.rootNs += s.end - s.start;
    }
    return out;
}

u64
outsideNs(const std::vector<Span> &spans, u64 start_ns, u64 end_ns,
          unsigned lanes)
{
    std::map<u32, std::vector<const Span *>> roots;
    for (const Span &s : spans)
        if (s.parent < 0)
            roots[s.lane].push_back(&s);
    if (roots.size() > lanes)
        throw std::logic_error("spans recorded on " +
                               std::to_string(roots.size()) + " lanes, " +
                               std::to_string(lanes) + " expected");
    const u64 window = end_ns - start_ns;
    u64 gaps = (lanes - roots.size()) * window;
    for (auto &[lane, rs] : roots) {
        std::sort(rs.begin(), rs.end(), [](const Span *x, const Span *y) {
            return x->start < y->start;
        });
        u64 covered = start_ns;  // end of the root spans seen so far
        for (const Span *s : rs) {
            if (s->start > covered)
                gaps += std::min(s->start, end_ns) - covered;
            covered = std::max(covered, std::min(s->end, end_ns));
            if (covered == end_ns)
                break;
        }
        gaps += end_ns - covered;
    }
    return gaps;
}

double
amdahlBound(const std::vector<double> &part_times)
{
    double sum = 0, mx = 0;
    for (double t : part_times) {
        sum += t;
        mx = std::max(mx, t);
    }
    return mx > 0 ? sum / mx : 0;
}

void
Lane::open(const char *name, u64 task)
{
    Span s;
    s.name = name;
    s.task = task;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start = nowNs();
    stack_.push_back(static_cast<i32>(spans_.size()));
    spans_.push_back(s);
}

void
Lane::close()
{
    if (stack_.empty())
        throw std::logic_error("span closed without an open span");
    spans_[static_cast<size_t>(stack_.back())].end = nowNs();
    stack_.pop_back();
}

void
Lane::aggregate(const char *name, u64 task, u64 dur_ns)
{
    Span s;
    s.name = name;
    s.task = task;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.end = nowNs();
    s.start = s.end - dur_ns;
    spans_.push_back(s);
}

void
Lane::adopt(const Lane &child)
{
    const i32 base = static_cast<i32>(spans_.size());
    const i32 top = stack_.empty() ? -1 : stack_.back();
    for (Span s : child.spans_) {
        s.parent = s.parent < 0 ? top : base + s.parent;
        spans_.push_back(s);
    }
}

namespace {

std::atomic<u64> nextRecorderId{1};

/** The calling thread's lane in the recorder it last used. */
struct LaneCache
{
    u64 recorder = 0;
    Lane *lane = nullptr;
};
thread_local LaneCache laneCache;

} // namespace

SpanRecorder::SpanRecorder() : id_(nextRecorderId.fetch_add(1)) {}

Lane &
SpanRecorder::lane()
{
    if (laneCache.recorder != id_) {
        std::lock_guard<std::mutex> lk(mu_);
        lanes_.push_back(std::make_unique<Lane>());
        laneCache.recorder = id_;
        laneCache.lane = lanes_.back().get();
    }
    return *laneCache.lane;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<Span> out;
    for (size_t li = 0; li < lanes_.size(); ++li) {
        const i32 base = static_cast<i32>(out.size());
        for (Span s : lanes_[li]->spans()) {
            s.lane = static_cast<u32>(li);
            if (s.parent >= 0)
                s.parent += base;
            out.push_back(s);
        }
    }
    return out;
}

void
exportSpans(const std::vector<Span> &spans, u64 epoch_ns, u32 pid,
            trips::obs::TraceSink &sink)
{
    for (const Span &s : spans) {
        sink.complete(pid, s.lane, (s.start - epoch_ns) / 1000,
                      (s.end - s.start) / 1000, s.name, "host", "task",
                      static_cast<double>(s.task), "parent",
                      static_cast<double>(s.parent));
    }
}

} // namespace perfbench
