// Unit-cost probes for the traced run: public functions timed on the run's
// own objects, so the admin and client self-time buckets can be explained.
#pragma once

#include "deployment.h"
#include "report.h"

namespace perfbench {

/// Adds ibbe.decrypt_ms (core::decrypt at the workload's |p|),
/// metadata.bundle_parse_ms (CipherBundle::from_bytes of the live bundle,
/// per partition), pki.sign_us / pki.verify_us (P-256 over the live manifest
/// envelope) and crypto.gcm_seal_us_1k (Aes256Gcm::seal of 1 KiB).
void run_probes(Deployment& d, Metrics& out);

}  // namespace perfbench
