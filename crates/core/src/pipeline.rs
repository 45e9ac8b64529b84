//! End-to-end orchestration: PDNS → identification → usage analyses →
//! active probing → status → abuse scan.

use crate::abusescan::{abuse_scan, AbuseScanConfig, AbuseScanReport};
use crate::fold::measure;
use crate::identify::IdentificationReport;
use crate::status::{status_report, StatusReport};
use crate::usage::{IngressRow, InvocationReport, MonthlySeries};
use fw_analysis::par::default_workers;
use fw_dns::pdns::PdnsBackend;
use fw_dns::resolver::Resolver;
use fw_net::SimNet;
use fw_probe::prober::{ProbeConfig, ProbeRecord, Prober};
use parking_lot::RwLock;
use std::sync::Arc;

/// Pipeline configuration.
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    pub probe: ProbeConfig,
    pub abuse: AbuseScanConfig,
}

/// Everything the paper reports, computed from the data.
#[derive(Debug)]
pub struct FullReport {
    pub identification: IdentificationReport,
    /// Figure 3.
    pub new_fqdns: MonthlySeries,
    /// Figure 4.
    pub request_series: MonthlySeries,
    /// Table 2.
    pub ingress: Vec<IngressRow>,
    /// Figure 5 / §4.3.
    pub invocation: InvocationReport,
    /// Raw probe records (§3.3 output).
    pub probe_records: Vec<ProbeRecord>,
    /// Figure 6 / §4.4.
    pub status: StatusReport,
    /// §5 / Table 3 / Figure 7 / Findings 5+10.
    pub abuse: AbuseScanReport,
}

/// Usage-only report (no network access needed): what
/// [`crate::fold::finish`] yields.
#[derive(Debug, PartialEq)]
pub struct UsageReport {
    pub identification: IdentificationReport,
    pub new_fqdns: MonthlySeries,
    pub request_series: MonthlySeries,
    pub ingress: Vec<IngressRow>,
    pub invocation: InvocationReport,
}

/// The measurement pipeline, bound to a network and resolver vantage
/// point.
pub struct Pipeline {
    net: SimNet,
    resolver: Arc<RwLock<Resolver>>,
}

impl Pipeline {
    pub fn new(net: SimNet, resolver: Arc<RwLock<Resolver>>) -> Pipeline {
        Pipeline { net, resolver }
    }

    /// §4 analyses only (passive data, no probing).
    pub fn run_usage<B: PdnsBackend + ?Sized>(pdns: &B) -> UsageReport {
        let _pipeline = fw_obs::span("pipeline");
        usage_half(pdns)
    }

    /// The full §3–§5 pipeline.
    pub fn run<B: PdnsBackend + ?Sized>(&self, pdns: &B, config: &PipelineConfig) -> FullReport {
        let _pipeline = fw_obs::span("pipeline");
        let UsageReport {
            identification,
            new_fqdns,
            request_series,
            ingress,
            invocation,
        } = usage_half(pdns);

        let probe_records = {
            let _s = fw_obs::span("pipeline/probe");
            let prober = Prober::new(
                self.net.clone(),
                self.resolver.clone(),
                config.probe.clone(),
            );
            prober.probe_all(&identification.probe_scope())
        };
        let status = {
            let _s = fw_obs::span("pipeline/status");
            status_report(&probe_records)
        };
        let abuse = {
            let _s = fw_obs::span("pipeline/abuse");
            abuse_scan(
                &probe_records,
                &identification,
                pdns,
                &self.net,
                &self.resolver,
                &config.abuse,
            )
        };

        FullReport {
            identification,
            new_fqdns,
            request_series,
            ingress,
            invocation,
            probe_records,
            status,
            abuse,
        }
    }
}

/// Identification and the four usage tables: one batch fold over
/// `pdns`, under the `pipeline/measure` stage span.
fn usage_half<B: PdnsBackend + ?Sized>(pdns: &B) -> UsageReport {
    let _s = fw_obs::span("pipeline/measure");
    measure(pdns, default_workers(), None).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_dns::pdns::PdnsStore;

    #[test]
    fn usage_only_runs_on_empty_store() {
        let pdns = PdnsStore::new();
        let report = Pipeline::run_usage(&pdns);
        assert_eq!(report.identification.functions.len(), 0);
        assert_eq!(report.invocation.functions, 0);
    }
}
