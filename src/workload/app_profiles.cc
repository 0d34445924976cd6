#include "workload/app_profiles.hh"

#include "sim/logging.hh"

namespace bulksc {

namespace {

std::vector<AppProfile>
makeSplash2()
{
    std::vector<AppProfile> v;

    // N-body tree code: mostly private tree walks, light locking,
    // almost no shared writes per chunk (paper W ~ 0.1 lines).
    AppProfile barnes;
    barnes.name = "barnes";
    barnes.memFrac = 0.28;
    barnes.sharedReadFrac = 0.12;
    barnes.sharedWritesPer1k = 0.12;
    barnes.privLines = 3072;
    barnes.privWriteLines = 64;
    barnes.hotLines = 256;
    barnes.hotFrac = 0.10;
    barnes.locality = 0.68;
    barnes.locksPer1k = 0.15;
    barnes.numLocks = 64;
    barnes.csMemOps = 4;
    barnes.csWriteFrac = 0.35;
    barnes.streamBurstsPer1k = 0.45;
    barnes.streamStoreFrac = 0.0;
    barnes.seed = 101;
    v.push_back(barnes);

    // Sparse factorization: large read sets, modest shared writes.
    AppProfile cholesky;
    cholesky.name = "cholesky";
    cholesky.memFrac = 0.30;
    cholesky.sharedReadFrac = 0.26;
    cholesky.sharedWritesPer1k = 0.9;
    cholesky.privLines = 4096;
    cholesky.privWriteLines = 80;
    cholesky.sharedWriteBurst = 3;
    cholesky.sharedLines = 32768;
    cholesky.hotLines = 512;
    cholesky.hotFrac = 0.08;
    cholesky.locality = 0.55;
    cholesky.locksPer1k = 0.25;
    cholesky.csMemOps = 4;
    cholesky.csWriteFrac = 0.35;
    cholesky.streamBurstsPer1k = 0.55;
    cholesky.streamStoreFrac = 0.05;
    cholesky.seed = 102;
    v.push_back(cholesky);

    // Transpose phases write shared data in disjoint stripes: sizable
    // W but essentially no true sharing; barrier-synchronized.
    AppProfile fft;
    fft.name = "fft";
    fft.memFrac = 0.30;
    fft.sharedReadFrac = 0.22;
    fft.sharedWritesPer1k = 1.0;
    fft.privLines = 6144;
    fft.privWriteLines = 160;
    fft.sharedWriteBurst = 4;
    fft.privStoreFrac = 0.40;
    fft.sharedLines = 32768;
    fft.hotFrac = 0.0;
    fft.locality = 0.58;
    fft.barriersPer100k = 2.0;
    fft.streamBurstsPer1k = 0.7;
    fft.streamStoreFrac = 0.20;
    fft.seed = 103;
    v.push_back(fft);

    AppProfile fmm;
    fmm.name = "fmm";
    fmm.memFrac = 0.30;
    fmm.sharedReadFrac = 0.24;
    fmm.sharedWritesPer1k = 0.2;
    fmm.privStoreFrac = 0.22;
    fmm.privLines = 1536;
    fmm.privWriteLines = 56;
    fmm.hotLines = 256;
    fmm.hotFrac = 0.08;
    fmm.locality = 0.62;
    fmm.locksPer1k = 0.20;
    fmm.csMemOps = 4;
    fmm.csWriteFrac = 0.35;
    fmm.streamBurstsPer1k = 0.45;
    fmm.streamStoreFrac = 0.0;
    fmm.seed = 104;
    v.push_back(fmm);

    // Blocked dense factorization: small, very local read sets.
    AppProfile lu;
    lu.name = "lu";
    lu.memFrac = 0.28;
    lu.sharedReadFrac = 0.10;
    lu.sharedWritesPer1k = 0.1;
    lu.privLines = 2048;
    lu.privWriteLines = 72;
    lu.hotFrac = 0.04;
    lu.locality = 0.80;
    lu.barriersPer100k = 3.0;
    lu.streamBurstsPer1k = 0.35;
    lu.streamStoreFrac = 0.0;
    lu.seed = 105;
    v.push_back(lu);

    // Grid stencil: streaming reads (big read sets), nearest-neighbor
    // write sharing, barrier-heavy.
    AppProfile ocean;
    ocean.name = "ocean";
    ocean.memFrac = 0.32;
    ocean.sharedReadFrac = 0.30;
    ocean.sharedWritesPer1k = 3.0;
    ocean.privLines = 3072;
    ocean.privWriteLines = 96;
    ocean.sharedWriteBurst = 4;
    ocean.privStoreFrac = 0.30;
    ocean.sharedLines = 49152;
    ocean.hotLines = 2048;
    ocean.hotFrac = 0.08;
    ocean.locality = 0.45;
    ocean.seqRun = 0.65;
    ocean.barriersPer100k = 4.0;
    ocean.streamBurstsPer1k = 0.9;
    ocean.streamStoreFrac = 0.15;
    ocean.seed = 106;
    v.push_back(ocean);

    // Task-queue renderer with locking and real true sharing.
    AppProfile radiosity;
    radiosity.name = "radiosity";
    radiosity.memFrac = 0.30;
    radiosity.sharedReadFrac = 0.18;
    radiosity.sharedWritesPer1k = 0.4;
    radiosity.privLines = 4096;
    radiosity.privWriteLines = 80;
    radiosity.sharedWriteBurst = 2;
    radiosity.hotLines = 512;
    radiosity.hotFrac = 0.10;
    radiosity.locality = 0.62;
    radiosity.locksPer1k = 0.30;
    radiosity.numLocks = 64;
    radiosity.csMemOps = 4;
    radiosity.csWriteFrac = 0.35;
    radiosity.streamBurstsPer1k = 0.45;
    radiosity.streamStoreFrac = 0.0;
    radiosity.seed = 107;
    v.push_back(radiosity);

    // Permutation phase scatters writes over a huge shared region:
    // almost no true sharing, but W is large and scattered — the
    // signature-aliasing pathology of the paper.
    AppProfile radix;
    radix.name = "radix";
    radix.memFrac = 0.30;
    radix.sharedReadFrac = 0.10;
    radix.sharedWritesPer1k = 5.0;
    radix.privLines = 3072;
    radix.privWriteLines = 128;
    radix.sharedWriteBurst = 4;
    radix.radixWritePattern = true;
    radix.sharedLines = 131072; // 8 buckets x 16K lines
    radix.hotLines = 512;
    radix.hotFrac = 0.12;
    radix.locality = 0.78;
    radix.stackFrac = 0.02; // almost no stack references (Section 7.2)
    radix.barriersPer100k = 1.5;
    radix.streamBurstsPer1k = 0.7;
    radix.streamStoreFrac = 0.20;
    radix.seed = 108;
    v.push_back(radix);

    // Work-queue ray tracer: contended locks, large read sets.
    AppProfile raytrace;
    raytrace.name = "raytrace";
    raytrace.memFrac = 0.30;
    raytrace.sharedReadFrac = 0.30;
    raytrace.sharedWritesPer1k = 0.6;
    raytrace.privLines = 4096;
    raytrace.privWriteLines = 80;
    raytrace.sharedWriteBurst = 2;
    raytrace.sharedLines = 49152;
    raytrace.hotLines = 512;
    raytrace.hotFrac = 0.12;
    raytrace.locality = 0.52;
    raytrace.locksPer1k = 0.40;
    raytrace.numLocks = 32;
    raytrace.csMemOps = 4;
    raytrace.csWriteFrac = 0.40;
    raytrace.streamBurstsPer1k = 0.55;
    raytrace.streamStoreFrac = 0.0;
    raytrace.seed = 109;
    v.push_back(raytrace);

    AppProfile waterns;
    waterns.name = "water-ns";
    waterns.memFrac = 0.28;
    waterns.sharedReadFrac = 0.14;
    waterns.sharedWritesPer1k = 0.1;
    waterns.privLines = 3072;
    waterns.privWriteLines = 88;
    waterns.hotFrac = 0.05;
    waterns.locality = 0.70;
    waterns.locksPer1k = 0.15;
    waterns.csMemOps = 4;
    waterns.csWriteFrac = 0.35;
    waterns.streamBurstsPer1k = 0.25;
    waterns.streamStoreFrac = 0.0;
    waterns.seed = 110;
    v.push_back(waterns);

    AppProfile watersp;
    watersp.name = "water-sp";
    watersp.memFrac = 0.28;
    watersp.sharedReadFrac = 0.16;
    watersp.sharedWritesPer1k = 0.1;
    watersp.privLines = 3584;
    watersp.privWriteLines = 88;
    watersp.hotFrac = 0.04;
    watersp.locality = 0.68;
    watersp.locksPer1k = 0.10;
    watersp.csMemOps = 4;
    watersp.csWriteFrac = 0.35;
    watersp.streamBurstsPer1k = 0.25;
    watersp.streamStoreFrac = 0.0;
    watersp.seed = 111;
    v.push_back(watersp);

    return v;
}

std::vector<AppProfile>
makeCommercial()
{
    std::vector<AppProfile> v;

    // SPECjbb2000-like: large footprints, frequent shared writes
    // (about half the chunks have a non-empty W), moderate locking.
    AppProfile sjbb;
    sjbb.name = "sjbb2k";
    sjbb.memFrac = 0.32;
    sjbb.sharedReadFrac = 0.28;
    sjbb.sharedWritesPer1k = 2.5;
    sjbb.privLines = 8192;
    sjbb.privWriteLines = 144;
    sjbb.sharedWriteBurst = 5;
    sjbb.sharedLines = 65536;
    sjbb.hotLines = 2048;
    sjbb.hotFrac = 0.08;
    sjbb.locality = 0.48;
    sjbb.locksPer1k = 0.5;
    sjbb.numLocks = 64;
    sjbb.csMemOps = 5;
    sjbb.csWriteFrac = 0.40;
    sjbb.streamBurstsPer1k = 0.9;
    sjbb.streamStoreFrac = 0.10;
    sjbb.seed = 201;
    v.push_back(sjbb);

    // SPECweb2005-like: even larger read sets that pressure the L1.
    AppProfile sweb;
    sweb.name = "sweb2005";
    sweb.memFrac = 0.35;
    sweb.sharedReadFrac = 0.36;
    sweb.sharedWritesPer1k = 2.8;
    sweb.privLines = 12288;
    sweb.privWriteLines = 144;
    sweb.sharedWriteBurst = 5;
    sweb.sharedLines = 98304;
    sweb.hotLines = 3072;
    sweb.hotFrac = 0.06;
    sweb.locality = 0.42;
    sweb.locksPer1k = 0.4;
    sweb.numLocks = 64;
    sweb.csMemOps = 5;
    sweb.csWriteFrac = 0.40;
    sweb.streamBurstsPer1k = 1.1;
    sweb.streamStoreFrac = 0.10;
    sweb.seed = 202;
    v.push_back(sweb);

    return v;
}

} // namespace

const std::vector<AppProfile> &
splash2Profiles()
{
    static const std::vector<AppProfile> v = makeSplash2();
    return v;
}

const std::vector<AppProfile> &
commercialProfiles()
{
    static const std::vector<AppProfile> v = makeCommercial();
    return v;
}

const std::vector<AppProfile> &
allProfiles()
{
    static const std::vector<AppProfile> v = [] {
        std::vector<AppProfile> all = makeSplash2();
        for (const auto &p : makeCommercial())
            all.push_back(p);
        return all;
    }();
    return v;
}

const AppProfile *
lookupProfile(const std::string &name)
{
    for (const auto &p : allProfiles()) {
        if (p.name == name)
            return &p;
    }
    return nullptr;
}

const AppProfile &
profileByName(const std::string &name)
{
    if (const AppProfile *p = lookupProfile(name))
        return *p;
    fatal("unknown application profile: ", name);
}

} // namespace bulksc
