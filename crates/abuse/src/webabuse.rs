//! Malicious-website detection (§5.2): gambling, porn, cheating tools.
//!
//! The paper applies keyword filtering over response content, then manual
//! review of page structure and semantics. Here the keyword stage is
//! reproduced directly, and the "structure" signals the analysts relied
//! on (gambling interfaces, `google-site-verification` campaign markers,
//! SEO keyword stuffing) become explicit features feeding the dual-rule
//! review in [`crate::review`].

/// Website abuse categories of §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WebAbuseKind {
    Gambling,
    Porn,
    Cheat,
}

/// Gambling keywords ("Slot", "Betting", ... §5.2).
const GAMBLING_KEYWORDS: &[&str] = &[
    "slot", "betting", "casino", "jackpot", "baccarat", "roulette", "gambl", "judi", "bet365",
    "sicbo", "lottery",
];

/// Porn keywords ("porn", "sex", "av", ... §5.2).
const PORN_KEYWORDS: &[&str] = &[
    "porn",
    "sex video",
    "adult video",
    "adult store",
    "uncensored",
    " av ",
    "18+",
    "adult gaming",
];

/// Cheating-tool keywords (email changer / age modification /
/// verification generators, §5.2).
const CHEAT_KEYWORDS: &[&str] = &[
    "email changer",
    "age modification",
    "verification generator",
    "bypass parental",
    "cheat",
    "unlimited uses",
];

/// Structure/semantic features the reviewers looked at.
#[derive(Debug, Clone, PartialEq)]
pub struct PageFeatures {
    pub gambling_hits: usize,
    pub porn_hits: usize,
    pub cheat_hits: usize,
    /// `google-site-verification` present (campaign marker).
    pub has_site_verification: bool,
    /// Keyword-stuffing score: max repetition count of any single
    /// gambling keyword (SEO stuffing repeats terms).
    pub stuffing_score: usize,
    /// Is it an interactive page (forms/inputs)?
    pub has_form: bool,
}

/// Extract detection features from a page body.
pub fn page_features(body: &str) -> PageFeatures {
    let lower = body.to_ascii_lowercase();
    let count_hits = |keywords: &[&str]| {
        keywords
            .iter()
            .filter(|k| lower.contains(&k.to_ascii_lowercase()))
            .count()
    };
    let stuffing = GAMBLING_KEYWORDS
        .iter()
        .map(|k| lower.matches(k).count())
        .max()
        .unwrap_or(0);
    PageFeatures {
        gambling_hits: count_hits(GAMBLING_KEYWORDS),
        porn_hits: count_hits(PORN_KEYWORDS),
        cheat_hits: count_hits(CHEAT_KEYWORDS),
        has_site_verification: lower.contains("google-site-verification"),
        stuffing_score: stuffing,
        has_form: lower.contains("<form") || lower.contains("<input"),
    }
}

/// Keyword-stage classification (the paper's first filter). Requires at
/// least two distinct keywords of a category to keep the candidate set
/// precise.
pub fn classify_keywords(body: &str) -> Option<WebAbuseKind> {
    let f = page_features(body);
    // Priority: gambling > porn > cheat (mirrors prevalence in §5.2 and
    // avoids porn keywords inside gambling pages flipping the label).
    if f.gambling_hits >= 2 {
        return Some(WebAbuseKind::Gambling);
    }
    if f.porn_hits >= 2 {
        return Some(WebAbuseKind::Porn);
    }
    if f.cheat_hits >= 2 {
        return Some(WebAbuseKind::Cheat);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const GAMBLING_PAGE: &str = r#"<html><head>
        <meta name="google-site-verification" content="gsv-campaign-0042">
        </head><body><h1>LuckyWin</h1>Slots | Live Casino | Sports Betting
        <div>slot slot slot betting betting jackpot</div></body></html>"#;

    #[test]
    fn gambling_detected_with_structure() {
        assert_eq!(
            classify_keywords(GAMBLING_PAGE),
            Some(WebAbuseKind::Gambling)
        );
        let f = page_features(GAMBLING_PAGE);
        assert!(f.has_site_verification);
        assert!(f.stuffing_score >= 4, "stuffing = {}", f.stuffing_score);
    }

    #[test]
    fn porn_detected() {
        let page = "<html><body>free adult video collection, uncensored, 18+ only</body></html>";
        assert_eq!(classify_keywords(page), Some(WebAbuseKind::Porn));
    }

    #[test]
    fn cheat_tool_detected() {
        let page = "<html><body><form>Account email changer / age modification tool \
                    <input></form>bypass parental controls</body></html>";
        assert_eq!(classify_keywords(page), Some(WebAbuseKind::Cheat));
        assert!(page_features(page).has_form);
    }

    #[test]
    fn benign_pages_pass() {
        for page in [
            "<html><body>Welcome to our cloud storage service</body></html>",
            r#"{"status":"ok"}"#,
            "[INFO] server started",
            // One gambling keyword alone is not enough (a news page might
            // mention "lottery" once).
            "<html><body>state lottery results announced</body></html>",
        ] {
            assert_eq!(classify_keywords(page), None, "{page}");
        }
    }

    #[test]
    fn gambling_priority_over_porn() {
        let page = "casino slot jackpot betting with adult video ads 18+";
        assert_eq!(classify_keywords(page), Some(WebAbuseKind::Gambling));
    }
}
