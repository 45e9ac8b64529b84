//! Hidden illicit services (§5.3): redirects and promo text.
//!
//! Two dissemination methods from the paper:
//!
//! 1. **Redirection** — `Location` headers, `location.href` scripts,
//!    `<meta http-equiv="refresh">`, plus the dynamic variants of Table 4
//!    (random splicing, random selection).
//! 2. **Hidden promotion** — OpenAI API-key / account resale text with
//!    embedded contact info (WeChat, QQ, email); repeated contacts
//!    cluster promos into abuse groups.

use fw_http::types::Response;
use fw_pattern::Pattern;
use std::sync::OnceLock;

/// How a redirect is expressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedirectMethod {
    HttpLocation,
    JsLocationHref,
    MetaRefresh,
    RandomSplice,
    RandomSelect,
}

/// One extracted redirect target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedirectFinding {
    pub method: RedirectMethod,
    /// Target URL; for random splicing, the stable domain suffix with a
    /// `*.` prefix.
    pub target: String,
}

fn pat(src: &str) -> Pattern {
    Pattern::compile(src).expect("illicit pattern compiles")
}

struct Patterns {
    href: Pattern,
    meta: Pattern,
    splice: Pattern,
    url_in_list: Pattern,
    wechat: Pattern,
    qq: Pattern,
    email: Pattern,
}

fn patterns() -> &'static Patterns {
    static P: OnceLock<Patterns> = OnceLock::new();
    P.get_or_init(|| Patterns {
        href: pat(r#"location\.href\s*=\s*["']([^"']+)["']"#),
        meta: pat(r#"http-equiv=["']refresh["'][^>]*url=([^"'>]+)"#),
        splice: pat(
            r#"location\.href\s*=\s*["']https?://["']\s*\+\s*\w+\s*\+\s*["']\.([a-z0-9.-]+)["']"#,
        ),
        url_in_list: pat(r#"'(https?://[^']+)'"#),
        wechat: pat(r"(wechat|weixin|微信)[:\s]*([a-zA-Z][a-zA-Z0-9_-]{4,19})"),
        qq: pat(r"(qq|QQ)[:\s]*([0-9]{5,11})"),
        email: pat(r"[a-zA-Z0-9._%+-]+@[a-zA-Z0-9.-]+\.[a-zA-Z]{2,}"),
    })
}

/// Extract every redirect expressed by a response.
pub fn extract_redirects(resp: &Response) -> Vec<RedirectFinding> {
    let mut out = Vec::new();
    if resp.is_redirect() {
        if let Some(loc) = resp.headers.get("location") {
            out.push(RedirectFinding {
                method: RedirectMethod::HttpLocation,
                target: loc.to_string(),
            });
        }
    }
    let body = resp.body_text();
    let p = patterns();

    // Random splicing first: its body also contains `location.href`, and
    // the stable suffix is the useful indicator.
    if body.contains("Math.random") {
        if let Some(c) = p.splice.captures(&body) {
            if let Some(suffix) = c.get(1) {
                out.push(RedirectFinding {
                    method: RedirectMethod::RandomSplice,
                    target: format!("*.{suffix}"),
                });
            }
        }
        // Random selection: a urls[] list indexed by Math.random.
        if body.contains("urls[") || body.contains("urls.length") {
            for (s, e) in p.url_in_list.find_all(&body) {
                let m = &body[s..e];
                out.push(RedirectFinding {
                    method: RedirectMethod::RandomSelect,
                    target: m.trim_matches('\'').to_string(),
                });
            }
        }
    }
    if out.iter().all(|f| f.method != RedirectMethod::RandomSplice) {
        if let Some(c) = p.href.captures(&body) {
            // Skip dynamic hrefs already handled above (contain no scheme
            // or were spliced).
            if let Some(target) = c.get(1) {
                if target.starts_with("http") {
                    out.push(RedirectFinding {
                        method: RedirectMethod::JsLocationHref,
                        target: target.to_string(),
                    });
                }
            }
        }
    }
    if let Some(c) = p.meta.captures(&body) {
        if let Some(target) = c.get(1) {
            out.push(RedirectFinding {
                method: RedirectMethod::MetaRefresh,
                target: target.trim().to_string(),
            });
        }
    }
    out
}

/// Contact channel in a promo.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Contact {
    WeChat(String),
    Qq(String),
    Email(String),
}

impl Contact {
    pub fn value(&self) -> &str {
        match self {
            Contact::WeChat(v) | Contact::Qq(v) | Contact::Email(v) => v,
        }
    }
}

/// An OpenAI-resale promo finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromoFinding {
    /// Sells accounts (vs. API keys).
    pub sells_accounts: bool,
    pub contacts: Vec<Contact>,
}

/// Detect OpenAI key/account resale promos (§5.3 "hidden promotion").
pub fn detect_openai_promo(body: &str) -> Option<PromoFinding> {
    let lower = body.to_ascii_lowercase();
    let about_openai = lower.contains("openai") || lower.contains("chatgpt");
    let about_resale = lower.contains("purchase")
        || lower.contains("for sale")
        || lower.contains("resale")
        || lower.contains("代充")
        || lower.contains("in stock")
        || lower.contains("rmb");
    let has_key_marker =
        lower.contains("api key") || lower.contains("sk-") || lower.contains("account");
    if !(about_openai && about_resale && has_key_marker) {
        return None;
    }
    let contacts = extract_contacts(body);
    if contacts.is_empty() {
        // Promos without a contact channel can't be acted on; the paper's
        // cases all carried contact info.
        return None;
    }
    Some(PromoFinding {
        sells_accounts: lower.contains("account"),
        contacts,
    })
}

/// Extract contact handles (WeChat / QQ / email).
///
/// Matching runs over an ASCII-lowercased copy (the pattern engine has no
/// case-insensitivity flag); handles are therefore normalized to
/// lowercase, which is also what contact-based grouping wants.
pub fn extract_contacts(body: &str) -> Vec<Contact> {
    let p = patterns();
    let lower = body.to_ascii_lowercase();
    let mut out = Vec::new();
    if let Some(c) = p.wechat.captures(&lower) {
        if let Some(handle) = c.get(2) {
            out.push(Contact::WeChat(handle.to_string()));
        }
    }
    if let Some(c) = p.qq.captures(&lower) {
        if let Some(num) = c.get(2) {
            out.push(Contact::Qq(num.to_string()));
        }
    }
    for (s, e) in p.email.find_all(&lower) {
        out.push(Contact::Email(lower[s..e].to_string()));
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_location_redirect() {
        let r = Response::redirect(302, "https://fxbtg-trade.example/登录");
        let f = extract_redirects(&r);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].method, RedirectMethod::HttpLocation);
        assert!(f[0].target.starts_with("https://fxbtg-trade.example"));
    }

    #[test]
    fn js_href_redirect_table4_static() {
        let r = Response::html(
            200,
            r#"<script>location.href = "http://dlcy.zeldalink.top/wlxcList.html"</script>"#,
        );
        let f = extract_redirects(&r);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].method, RedirectMethod::JsLocationHref);
        assert_eq!(f[0].target, "http://dlcy.zeldalink.top/wlxcList.html");
    }

    #[test]
    fn meta_refresh_redirect() {
        let r = Response::html(
            200,
            r#"<meta http-equiv="refresh" content="0; url=https://hidden.example/x">"#,
        );
        let f = extract_redirects(&r);
        assert_eq!(f[0].method, RedirectMethod::MetaRefresh);
        assert_eq!(f[0].target, "https://hidden.example/x");
    }

    #[test]
    fn random_splice_extracts_suffix_table4() {
        let r = Response::html(
            200,
            "<script>var Rand = Math.round(Math.random() * 999999)\n\
             location.href=\"https://\"+Rand+\".yerbsdga.xyz\"</script>",
        );
        let f = extract_redirects(&r);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].method, RedirectMethod::RandomSplice);
        assert_eq!(f[0].target, "*.yerbsdga.xyz");
    }

    #[test]
    fn random_select_extracts_all_urls_table4() {
        let r = Response::html(
            200,
            "<script>const urls =[\n'https://polaris.zijieapi.com/luckycat/x',\n\
             'https://www.bilibili.com/',\n'https://www.bilibili.com/',\n]\n\
             const url = urls[Math.floor(Math.random() * urls.length)]\n\
             location.href = url</script>",
        );
        let f = extract_redirects(&r);
        let selects: Vec<_> = f
            .iter()
            .filter(|x| x.method == RedirectMethod::RandomSelect)
            .collect();
        assert_eq!(selects.len(), 3);
        assert!(selects.iter().any(|x| x.target.contains("zijieapi")));
    }

    #[test]
    fn plain_page_has_no_redirects() {
        let r = Response::html(200, "<html><body>just a page</body></html>");
        assert!(extract_redirects(&r).is_empty());
    }

    #[test]
    fn openai_promo_detection() {
        let body = "To purchase an OpenAI API key (e.g. sk-s5S5BoV***), contact via \
                    WeChat: wx_fastgpt88. 10 RMB trial.";
        let promo = detect_openai_promo(body).expect("promo detected");
        assert_eq!(promo.contacts, vec![Contact::WeChat("wx_fastgpt88".into())]);
    }

    #[test]
    fn account_sale_detection() {
        let body = "OpenAI account for sale: 10 RMB with $18 credit. QQ: 123456789";
        let promo = detect_openai_promo(body).expect("promo detected");
        assert!(promo.sells_accounts);
        assert_eq!(promo.contacts, vec![Contact::Qq("123456789".into())]);
    }

    #[test]
    fn openai_mention_without_resale_not_flagged() {
        for body in [
            "This is a simple web application that interacts with OpenAI's chatbot API.",
            "OpenAI ChatGPT proxy frontend",
            "buy our cloud credits", // resale-ish but not OpenAI
        ] {
            assert!(detect_openai_promo(body).is_none(), "{body}");
        }
    }

    #[test]
    fn contact_extraction_variants() {
        let contacts = extract_contacts("WeChat: seller_abc QQ: 88877766 mail seller@example.com");
        assert!(contacts.contains(&Contact::WeChat("seller_abc".into())));
        assert!(contacts.contains(&Contact::Qq("88877766".into())));
        assert!(contacts.contains(&Contact::Email("seller@example.com".into())));
    }
}
