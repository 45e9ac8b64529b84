//! Table 1: function-URL formats and domain regular expressions.
//!
//! The paper's authors derived these formats empirically by creating
//! functions on each provider and reading the development documentation
//! (§3.1). This module is the simulator's ground truth: the platform
//! *generates* domains with [`UrlFormat::generate`] and the measurement
//! pipeline *identifies* them with [`UrlFormat::pattern`] — the property
//! tests assert the two always agree.
//!
//! One paper-faithful nuance: Table 1 prints two expressions with
//! unescaped dots (Kingsoft's `.ksyuncf.com`, Google's
//! `.cloudfunctions.net`). We compile the escaped form — the unescaped
//! dot would also match e.g. `cloudfunctionsXnet`, which the paper's
//! validation round ("refined the expressions until only valid cloud
//! function domains were collected") would have caught.

use fw_pattern::{Captures, Pattern};
use fw_types::{Fqdn, ProviderId};
use std::sync::OnceLock;

/// Components from which a function URL is minted.
#[derive(Debug, Clone, Default)]
pub struct UrlParts {
    /// Function name (`[FName]`).
    pub fname: String,
    /// Project / namespace name (`[PName]`).
    pub pname: String,
    /// Account identifier (`[UserID]`, Tencent: 10 digits).
    pub user_id: String,
    /// Provider-generated random string (length varies by provider).
    pub random: String,
    /// Region code (must come from the provider's region catalogue).
    pub region: String,
}

/// One provider's URL format (a Table 1 row).
#[derive(Debug)]
pub struct UrlFormat {
    pub provider: ProviderId,
    /// Human-readable template, as printed in Table 1.
    pub template: &'static str,
    /// The domain regular expression.
    pub regex: &'static str,
    /// Length of the `[Random]` component, where fixed.
    pub random_len: usize,
    /// Capture-group index that holds the region code, if the format
    /// encodes one in the domain.
    region_group: Option<usize>,
    pattern: OnceLock<Pattern>,
}

impl UrlFormat {
    /// The compiled domain pattern.
    pub fn pattern(&self) -> &Pattern {
        self.pattern
            .get_or_init(|| Pattern::compile(self.regex).expect("table 1 regex must compile"))
    }

    /// Does `fqdn` match this format?
    pub fn matches(&self, fqdn: &Fqdn) -> bool {
        self.pattern().is_match(fqdn.as_str())
    }

    /// Extract the region code from a matching fqdn.
    pub fn region_of(&self, fqdn: &Fqdn) -> Option<String> {
        self.region_group?;
        let caps = self.pattern().captures(fqdn.as_str())?;
        self.region_from(&caps)
    }

    /// Extract the region from an already-computed captures run.
    fn region_from(&self, caps: &Captures) -> Option<String> {
        let group = self.region_group?;
        match self.provider {
            // Google 1st gen splits the region across two groups:
            // `(us)-(central1)-(project)`.
            ProviderId::Google => {
                let a = caps.get(1)?;
                let rest = caps.get(2)?;
                Some(format!("{a}-{rest}"))
            }
            _ => caps.get(group).map(str::to_string),
        }
    }

    /// Mint the function domain and invocation path for `parts`.
    ///
    /// Panics if a required part is empty — deployment validates inputs.
    pub fn generate(&self, parts: &UrlParts) -> (Fqdn, String) {
        let p = parts;
        let (host, path) = match self.provider {
            ProviderId::Aliyun => (
                format!(
                    "{}-{}-{}.{}.fcapp.run",
                    p.fname, p.pname, p.random, p.region
                ),
                "/".to_string(),
            ),
            ProviderId::Baidu => (
                format!("{}.cfc-execute.{}.baidubce.com", p.random, p.region),
                format!("/{}", p.fname),
            ),
            ProviderId::Tencent => (
                format!("{}-{}-{}.scf.tencentcs.com", p.user_id, p.random, p.region),
                "/".to_string(),
            ),
            ProviderId::Kingsoft => (
                format!("{}-{}.ksyuncf.com", p.random, p.region),
                "/".to_string(),
            ),
            ProviderId::Aws => (
                format!("{}.lambda-url.{}.on.aws", p.random, p.region),
                "/".to_string(),
            ),
            ProviderId::Google => (
                format!("{}-{}.cloudfunctions.net", p.region, p.pname),
                format!("/{}", p.fname),
            ),
            ProviderId::Google2 => (
                format!("{}-{}-{}.a.run.app", p.fname, p.random, p.region),
                "/".to_string(),
            ),
            ProviderId::Ibm => (
                format!("{}.functions.appdomain.cloud", p.region),
                format!("/api/v1/web/{}/default/{}", p.pname, p.fname),
            ),
            ProviderId::Oracle => (
                format!("{}.{}.functions.oci.oraclecloud.com", p.random, p.region),
                format!("/20181201/functions/{}/actions/invoke", p.fname),
            ),
            ProviderId::Azure => (
                format!("{}.azurewebsites.net", p.pname),
                format!("/api/{}?code=KEY", p.fname),
            ),
        };
        let fqdn = Fqdn::parse(&host).expect("generated host must be a valid fqdn");
        debug_assert!(
            self.matches(&fqdn),
            "generated domain {fqdn} must match its own format {}",
            self.regex
        );
        (fqdn, path)
    }
}

/// The ten Table 1 rows.
pub fn all_formats() -> &'static [UrlFormat; 10] {
    static FORMATS: OnceLock<[UrlFormat; 10]> = OnceLock::new();
    FORMATS.get_or_init(|| {
        [
            UrlFormat {
                provider: ProviderId::Aliyun,
                template: "[FName]-[PName]-[Random].[Region].fcapp.run/",
                regex: r"^(.*)-(.*)-[a-z]{10}\.(.*)\.fcapp\.run$",
                random_len: 10,
                region_group: Some(3),
                pattern: OnceLock::new(),
            },
            UrlFormat {
                provider: ProviderId::Baidu,
                template: "[Random].cfc-execute.[Region].baidubce.com/",
                regex: r"^[a-z0-9]{13}\.cfc-execute\.(.*)\.baidubce\.com$",
                random_len: 13,
                region_group: Some(1),
                pattern: OnceLock::new(),
            },
            UrlFormat {
                provider: ProviderId::Tencent,
                template: "[UserID]-[Random]-[Region].scf.tencentcs.com/",
                regex: r"^[0-9]{10}-[a-z0-9]{10}-(.*)\.scf\.tencentcs\.com$",
                random_len: 10,
                region_group: Some(1),
                pattern: OnceLock::new(),
            },
            UrlFormat {
                provider: ProviderId::Kingsoft,
                template: "[Random].[Region].ksyuncf.com/",
                regex: r"^(.*)-(eu-east-1|cn-beijing-6)\.ksyuncf\.com$",
                random_len: 12,
                region_group: Some(2),
                pattern: OnceLock::new(),
            },
            UrlFormat {
                provider: ProviderId::Aws,
                template: "[Random].lambda-url.[Region].on.aws/",
                regex: r"^(.*)\.lambda-url\.(.*)\.on\.aws$",
                random_len: 32,
                region_group: Some(2),
                pattern: OnceLock::new(),
            },
            UrlFormat {
                provider: ProviderId::Google,
                template: "[Region]-[PName].cloudfunctions.net/[FName]",
                regex: r"^(asia|europe|us|australia|northamerica|southamerica)-(.*)-(.*)\.cloudfunctions\.net$",
                random_len: 0,
                region_group: Some(1),
                pattern: OnceLock::new(),
            },
            UrlFormat {
                provider: ProviderId::Google2,
                template: "[FName]-[Random]-[Region].a.run.app/",
                regex: r"^(.*)-[a-z0-9]{10}-(.*)\.a\.run\.app$",
                random_len: 10,
                region_group: Some(2),
                pattern: OnceLock::new(),
            },
            UrlFormat {
                provider: ProviderId::Ibm,
                template: "[Region].functions.appdomain.cloud/.../[FName]",
                regex: r"^(us-south|us-east|eu-gb|eu-de|jp-tok|au-syd)\.functions\.appdomain\.cloud$",
                random_len: 0,
                region_group: Some(1),
                pattern: OnceLock::new(),
            },
            UrlFormat {
                provider: ProviderId::Oracle,
                template: "[Random].[Region].functions.oci.oraclecloud.com/.../[FName]",
                regex: r"^[a-z0-9]{11}\.(.*)\.functions\.oci\.oraclecloud\.com$",
                random_len: 11,
                region_group: Some(1),
                pattern: OnceLock::new(),
            },
            UrlFormat {
                provider: ProviderId::Azure,
                template: "[PName].azurewebsites.net/.../[FName]?code=Key",
                regex: r"^(.*)\.azurewebsites\.net$",
                random_len: 0,
                region_group: None,
                pattern: OnceLock::new(),
            },
        ]
    })
}

/// The format for one provider. [`all_formats`] lists the rows in
/// [`ProviderId::ALL`] order, so the provider indexes its row.
pub fn format_for(provider: ProviderId) -> &'static UrlFormat {
    &all_formats()[provider as usize]
}

/// The DNS-identifiable format whose domain suffix `fqdn` carries, if
/// any: the one candidate [`identify`] runs its expression for. The nine
/// suffixes never nest (the tests check it), so at most one applies.
/// Azure is excluded — its suffix is shared with ordinary web apps, so
/// the paper drops it from collection (§3.2).
pub fn format_by_suffix(fqdn: &Fqdn) -> Option<&'static UrlFormat> {
    ProviderId::collected()
        .find(|p| fqdn.has_suffix(p.domain_suffix()))
        .map(format_for)
}

/// Identify the provider format matching a domain, if any: the
/// expression of the one format [`format_by_suffix`] selects.
pub fn identify(fqdn: &Fqdn) -> Option<ProviderId> {
    let f = format_by_suffix(fqdn)?;
    f.matches(fqdn).then_some(f.provider)
}

/// Identify the provider *and* extract its region code in one pass.
///
/// Equivalent to `identify(fqdn)` followed by
/// `format_for(provider).region_of(fqdn)`, but runs the pattern engine
/// once instead of twice — this is the per-fqdn hot path when classifying
/// PDNS-scale aggregate streams.
pub fn identify_with_region(fqdn: &Fqdn) -> Option<(ProviderId, Option<String>)> {
    let f = format_by_suffix(fqdn)?;
    let caps = f.pattern().captures(fqdn.as_str())?;
    Some((f.provider, f.region_from(&caps)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts_for(provider: ProviderId) -> UrlParts {
        UrlParts {
            fname: "myfn".into(),
            pname: "proj".into(),
            user_id: "1300000001".into(),
            random: match provider {
                ProviderId::Aliyun => "abcdefghij".into(),
                ProviderId::Baidu => "a1b2c3d4e5f6g".into(),
                ProviderId::Tencent => "a1b2c3d4e5".into(),
                ProviderId::Kingsoft => "fnabc123".into(),
                ProviderId::Aws => "x2h5k7m9p1q3r5s7t9v1w3x5y7z9a1b3".into(),
                ProviderId::Google2 => "a1b2c3d4e5".into(),
                ProviderId::Oracle => "a1b2c3d4e5f".into(),
                _ => String::new(),
            },
            region: match provider {
                ProviderId::Aliyun => "cn-shanghai".into(),
                ProviderId::Baidu => "bj".into(),
                ProviderId::Tencent => "ap-guangzhou".into(),
                ProviderId::Kingsoft => "cn-beijing-6".into(),
                ProviderId::Aws => "us-east-1".into(),
                ProviderId::Google => "us-central1".into(),
                ProviderId::Google2 => "uc".into(),
                ProviderId::Ibm => "eu-gb".into(),
                ProviderId::Oracle => "us-ashburn-1".into(),
                ProviderId::Azure => String::new(),
            },
        }
    }

    #[test]
    fn format_for_finds_each_providers_row() {
        for p in ProviderId::ALL {
            assert_eq!(format_for(p).provider, p);
        }
    }

    #[test]
    fn every_generated_domain_matches_its_format() {
        for f in all_formats() {
            let (fqdn, path) = f.generate(&parts_for(f.provider));
            assert!(f.matches(&fqdn), "{}: {fqdn}", f.provider);
            assert!(path.starts_with('/'), "{}: path {path}", f.provider);
        }
    }

    #[test]
    fn identify_maps_each_generated_domain_to_its_provider() {
        for f in all_formats() {
            let (fqdn, _) = f.generate(&parts_for(f.provider));
            let expect = if f.provider.dns_identifiable() {
                Some(f.provider)
            } else {
                None // Azure: excluded from collection (§3.2)
            };
            assert_eq!(identify(&fqdn), expect, "{fqdn}");
        }
    }

    const LOOKALIKES: [&str; 6] = [
        "a.scf.tencentcs.com",                       // missing uid-random shape
        "123456789-abcdefghij-gz.scf.tencentcs.com", // 9-digit uid
        "example.com",
        "www.fcapp.run",                // no fname-pname-random prefix
        "cloudfunctionsxnet.other.dom", // the unescaped-dot trap
        "x.lambda-url.on.aws",          // missing region label
    ];

    #[test]
    fn identify_rejects_lookalikes() {
        for bad in LOOKALIKES {
            let fqdn = Fqdn::parse(bad).unwrap();
            assert_eq!(identify(&fqdn), None, "{bad}");
        }
    }

    /// The lookup's premise: no DNS-identifiable suffix is a label-wise
    /// suffix of another.
    #[test]
    fn dns_identifiable_suffixes_never_nest() {
        let suffixes: Vec<&str> = ProviderId::collected().map(|p| p.domain_suffix()).collect();
        assert_eq!(suffixes.len(), 9);
        for a in &suffixes {
            for b in &suffixes {
                if a != b {
                    let fqdn = Fqdn::parse(a).unwrap();
                    assert!(!fqdn.has_suffix(b), "{a} nests under {b}");
                }
            }
        }
    }

    /// The per-format scan the lookup replaced: every DNS-identifiable
    /// row of [`all_formats`] in Table 1 order, the first whose suffix
    /// the fqdn carries.
    fn scan_by_suffix(fqdn: &Fqdn) -> Option<ProviderId> {
        all_formats()
            .iter()
            .filter(|f| f.provider.dns_identifiable())
            .find(|f| fqdn.has_suffix(f.provider.domain_suffix()))
            .map(|f| f.provider)
    }

    #[test]
    fn suffix_lookup_agrees_with_a_table1_scan() {
        let mut rng = fw_pattern::XorShiftRng::new(21);
        let mut names: Vec<String> = LOOKALIKES.iter().map(|s| s.to_string()).collect();
        for f in all_formats() {
            let sampler = fw_pattern::Sampler::with_config(
                f.pattern(),
                fw_pattern::SamplerConfig::domain_friendly(),
            );
            names.extend((0..50).map(|_| sampler.sample(&mut rng)));
        }
        // Random names built from the suffixes' own labels, so near
        // misses (`run.app` without `a.`, `oraclecloud.com` without
        // `oci.`) and bare suffixes come up often.
        let labels = [
            "a",
            "run",
            "app",
            "fcapp",
            "com",
            "scf",
            "tencentcs",
            "baidubce",
            "ksyuncf",
            "on",
            "aws",
            "cloudfunctions",
            "net",
            "functions",
            "appdomain",
            "cloud",
            "oci",
            "oraclecloud",
            "azurewebsites",
            "x",
        ];
        for _ in 0..5_000 {
            let n = 2 + fw_pattern::Rng::below(&mut rng, 4) as usize;
            let name: Vec<&str> = (0..n)
                .map(|_| labels[fw_pattern::Rng::below(&mut rng, labels.len() as u32) as usize])
                .collect();
            names.push(name.join("."));
        }
        for name in &names {
            let fqdn = Fqdn::parse(name).unwrap();
            assert_eq!(
                format_by_suffix(&fqdn).map(|f| f.provider),
                scan_by_suffix(&fqdn),
                "{name}"
            );
            let scanned = all_formats()
                .iter()
                .filter(|f| f.provider.dns_identifiable())
                .find(|f| fqdn.has_suffix(f.provider.domain_suffix()) && f.matches(&fqdn))
                .map(|f| f.provider);
            assert_eq!(identify(&fqdn), scanned, "{name}");
        }
    }

    #[test]
    fn region_extraction() {
        let cases = [
            (ProviderId::Aliyun, "cn-shanghai"),
            (ProviderId::Baidu, "bj"),
            (ProviderId::Tencent, "ap-guangzhou"),
            (ProviderId::Kingsoft, "cn-beijing-6"),
            (ProviderId::Aws, "us-east-1"),
            (ProviderId::Google2, "uc"),
            (ProviderId::Ibm, "eu-gb"),
            (ProviderId::Oracle, "us-ashburn-1"),
        ];
        for (provider, expect) in cases {
            let f = format_for(provider);
            let (fqdn, _) = f.generate(&parts_for(provider));
            assert_eq!(f.region_of(&fqdn).as_deref(), Some(expect), "{provider}");
        }
    }

    #[test]
    fn google_first_gen_region_recombined() {
        let f = format_for(ProviderId::Google);
        let (fqdn, _) = f.generate(&parts_for(ProviderId::Google));
        assert_eq!(fqdn.as_str(), "us-central1-proj.cloudfunctions.net");
        // Greedy `(.*)-(.*)` puts everything up to the last dash in group
        // 2, so the recombined region is region+project-prefix; the
        // pipeline only uses 1st-gen regions at word granularity (us,
        // europe, ...), which group 1 provides exactly.
        assert!(f.region_of(&fqdn).unwrap().starts_with("us-"));
    }

    #[test]
    fn azure_has_no_region_group() {
        let f = format_for(ProviderId::Azure);
        let (fqdn, _) = f.generate(&parts_for(ProviderId::Azure));
        assert_eq!(f.region_of(&fqdn), None);
    }

    #[test]
    fn azure_collision_with_ordinary_webapps() {
        // The reason Azure is excluded from collection (§3.2): ANY
        // azurewebsites.net name matches, functions or not.
        let f = format_for(ProviderId::Azure);
        assert!(f.matches(&Fqdn::parse("random-blog.azurewebsites.net").unwrap()));
    }
}
