#include "analysis/sc_verifier.hh"

#include <sstream>

namespace bulksc {

void
ScVerifier::chunkCommitted(ProcId p,
                           const std::vector<LoggedAccess> &log)
{
    ++nChunks;
    for (std::size_t i = 0; i < log.size(); ++i) {
        const LoggedAccess &a = log[i];
        if (a.isWrite) {
            state[a.addr] = {a.value, a.hasValue};
            ++nWrites;
            continue;
        }
        if (!a.hasValue) {
            ++nSkippedReads;
            continue;
        }
        ++nReads;
        auto it = state.find(a.addr);
        // An address never written still has its (known) initial
        // value of 0; one last written by an untracked store has no
        // usable reference value.
        if (it != state.end() && !it->second.known) {
            ++nUnknownReads;
            continue;
        }
        std::uint64_t expect = it == state.end() ? 0 : it->second.value;
        if (a.value != expect && errorLog.size() < 32) {
            std::ostringstream os;
            os << "proc " << p << " chunk " << nChunks << " access "
               << i << ": load of 0x" << std::hex << a.addr
               << " observed 0x" << a.value << " but serial replay"
               << " expects 0x" << expect;
            errorLog.push_back(os.str());
        }
    }
}

} // namespace bulksc
