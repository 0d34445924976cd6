#include "analysis/analysis_engine.hh"

namespace bulksc {

void
AnalysisEngine::dumpStats(StatGroup &sg) const
{
    if (replay_) {
        sg.set("sc_verifier.verified", replay_->verified() ? 1 : 0);
        sg.set("sc_verifier.chunks",
               static_cast<double>(replay_->chunksChecked()));
        sg.set("sc_verifier.reads",
               static_cast<double>(replay_->readsChecked()));
        sg.set("sc_verifier.errors",
               static_cast<double>(replay_->errors().size()));
    }
    if (!logsAllAccesses())
        return;
    sg.set("analysis.chunks", static_cast<double>(nChunks));
    if (graph_) {
        sg.set("analysis.sc_ok", graph_->ok() ? 1 : 0);
        sg.set("analysis.sc_cycles",
               static_cast<double>(graph_->cyclesDetected()));
        sg.set("analysis.graph_nodes",
               static_cast<double>(graph_->numNodes()));
        sg.set("analysis.graph_edges",
               static_cast<double>(graph_->numEdges()));
        sg.set("analysis.edges_po",
               static_cast<double>(
                   graph_->edgeCount(MemOrderGraph::EdgeKind::Po)));
        sg.set("analysis.edges_rf",
               static_cast<double>(
                   graph_->edgeCount(MemOrderGraph::EdgeKind::Rf)));
        sg.set("analysis.edges_co",
               static_cast<double>(
                   graph_->edgeCount(MemOrderGraph::EdgeKind::Co)));
        sg.set("analysis.edges_fr",
               static_cast<double>(
                   graph_->edgeCount(MemOrderGraph::EdgeKind::Fr)));
        sg.set("analysis.unmatched_reads",
               static_cast<double>(graph_->unmatchedReads()));
    }
    if (races_) {
        sg.set("analysis.races",
               static_cast<double>(races_->racesFound()));
        sg.set("analysis.racy_addrs",
               static_cast<double>(races_->racyAddrs()));
        sg.set("analysis.sync_ops",
               static_cast<double>(races_->syncOps()));
        sg.set("analysis.checked_accesses",
               static_cast<double>(races_->checkedAccesses()));
    }
}

} // namespace bulksc
