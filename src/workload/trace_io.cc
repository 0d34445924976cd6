#include "workload/trace_io.hh"

#include <cstdio>
#include <cstring>
#include <memory>

namespace bulksc {

namespace {

constexpr char kMagic[4] = {'B', 'S', 'C', 'T'};
constexpr std::uint32_t kVersion = 1;

/** On-disk op record (packed, fixed layout). */
struct DiskOp
{
    std::uint64_t addr;
    std::uint64_t storeValue;
    std::uint32_t gap;
    std::uint32_t aux;
    std::uint8_t type;
    std::uint8_t stackRef;
    std::uint8_t tracked;
    std::uint8_t pad;
};
static_assert(sizeof(DiskOp) == 32, "DiskOp layout must be stable");

struct FileCloser
{
    void
    operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};

/** Set @p err to "<what> '<path>'" and fail. */
bool
fail(std::string &err, const char *what, const std::string &path)
{
    err = std::string(what) + " '" + path + "'";
    return false;
}

} // namespace

bool
saveTraces(const std::string &path, const std::vector<Trace> &traces,
           std::string &err)
{
    std::unique_ptr<std::FILE, FileCloser> f(
        std::fopen(path.c_str(), "wb"));
    if (!f)
        return fail(err, "cannot open", path);
    std::uint32_t n = static_cast<std::uint32_t>(traces.size());
    if (std::fwrite(kMagic, 1, 4, f.get()) != 4 ||
        std::fwrite(&kVersion, sizeof kVersion, 1, f.get()) != 1 ||
        std::fwrite(&n, sizeof n, 1, f.get()) != 1) {
        return fail(err, "cannot write", path);
    }
    for (const Trace &t : traces) {
        std::uint64_t ops = t.ops.size();
        if (std::fwrite(&ops, sizeof ops, 1, f.get()) != 1)
            return fail(err, "cannot write", path);
        for (const Op &op : t.ops) {
            DiskOp d{};
            d.addr = op.addr;
            d.storeValue = op.storeValue;
            d.gap = op.gap;
            d.aux = op.aux;
            d.type = static_cast<std::uint8_t>(op.type);
            d.stackRef = op.stackRef ? 1 : 0;
            d.tracked = op.tracked ? 1 : 0;
            if (std::fwrite(&d, sizeof d, 1, f.get()) != 1)
                return fail(err, "cannot write", path);
        }
    }
    if (std::fclose(f.release()) != 0)
        return fail(err, "cannot write", path);
    return true;
}

bool
loadTraces(const std::string &path, std::vector<Trace> &out,
           std::string &err)
{
    out.clear();
    std::unique_ptr<std::FILE, FileCloser> f(
        std::fopen(path.c_str(), "rb"));
    if (!f)
        return fail(err, "cannot open", path);
    char magic[4];
    std::uint32_t version = 0, n = 0;
    if (std::fread(magic, 1, 4, f.get()) != 4 ||
        std::memcmp(magic, kMagic, 4) != 0) {
        return fail(err, "not a trace bundle", path);
    }
    if (std::fread(&version, sizeof version, 1, f.get()) != 1 ||
        version != kVersion) {
        return fail(err, "unsupported version in", path);
    }
    if (std::fread(&n, sizeof n, 1, f.get()) != 1 || n > 1024)
        return fail(err, "bad trace count in", path);

    std::vector<Trace> traces(n);
    for (Trace &t : traces) {
        std::uint64_t ops = 0;
        if (std::fread(&ops, sizeof ops, 1, f.get()) != 1 ||
            ops > (std::uint64_t{1} << 32)) {
            return fail(err, "bad op count in", path);
        }
        t.ops.resize(ops);
        for (Op &op : t.ops) {
            DiskOp d;
            if (std::fread(&d, sizeof d, 1, f.get()) != 1)
                return fail(err, "truncated bundle", path);
            op.addr = d.addr;
            op.storeValue = d.storeValue;
            op.gap = d.gap;
            op.aux = d.aux;
            op.type = static_cast<OpType>(d.type);
            op.stackRef = d.stackRef != 0;
            op.tracked = d.tracked != 0;
        }
        t.finalize();
    }
    out = std::move(traces);
    return true;
}

} // namespace bulksc
