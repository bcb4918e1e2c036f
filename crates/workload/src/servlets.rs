//! The RUBBoS browse-only interaction mix.
//!
//! RUBBoS models Slashdot with 24 servlet interactions; the paper uses the
//! CPU-intensive browse-only subset. We reproduce that structure: each
//! servlet has a relative frequency in the mix, per-tier demand multipliers
//! (some pages are heavier than others), and a database query count. The
//! weighted query count averages ≈ 2 queries per HTTP request, matching the
//! paper's example visit ratio `V₃ = 2`.

use dcm_sim::dist::{AliasTable, WeightsError};
use dcm_sim::rng::SimRng;

/// One RUBBoS interaction type.
#[derive(Debug, Clone, PartialEq)]
pub struct Servlet {
    /// Interaction name (RUBBoS servlet).
    pub name: &'static str,
    /// Relative frequency in the browse-only mix.
    pub weight: f64,
    /// Demand multiplier at the web tier.
    pub web_mult: f64,
    /// Demand multiplier at the application tier.
    pub app_mult: f64,
    /// Demand multiplier at the database tier (per query).
    pub db_mult: f64,
    /// Number of database queries this interaction issues.
    pub db_queries: u32,
}

/// The browse-only servlet mix with O(1) weighted sampling.
#[derive(Debug, Clone)]
pub struct ServletMix {
    servlets: Vec<Servlet>,
    alias: AliasTable,
}

impl ServletMix {
    /// The RUBBoS browse-only mix (24 interactions).
    ///
    /// Weights approximate the RUBBoS browse-only transition table:
    /// story/comment browsing dominates, searches and user pages are rarer.
    /// Query counts are chosen so the weighted mean is ≈ 2.0.
    pub fn browse_only() -> Self {
        let servlets = vec![
            Servlet {
                name: "StoriesOfTheDay",
                weight: 14.0,
                web_mult: 1.0,
                app_mult: 1.2,
                db_mult: 1.1,
                db_queries: 2,
            },
            Servlet {
                name: "ViewStory",
                weight: 13.0,
                web_mult: 1.0,
                app_mult: 1.1,
                db_mult: 1.0,
                db_queries: 2,
            },
            Servlet {
                name: "ViewComment",
                weight: 10.0,
                web_mult: 1.0,
                app_mult: 0.9,
                db_mult: 0.9,
                db_queries: 2,
            },
            Servlet {
                name: "BrowseCategories",
                weight: 8.0,
                web_mult: 1.0,
                app_mult: 0.8,
                db_mult: 0.8,
                db_queries: 1,
            },
            Servlet {
                name: "BrowseStoriesByCategory",
                weight: 8.0,
                web_mult: 1.0,
                app_mult: 1.1,
                db_mult: 1.2,
                db_queries: 2,
            },
            Servlet {
                name: "OlderStories",
                weight: 6.0,
                web_mult: 1.0,
                app_mult: 1.0,
                db_mult: 1.3,
                db_queries: 2,
            },
            Servlet {
                name: "SearchInStories",
                weight: 4.0,
                web_mult: 1.0,
                app_mult: 1.4,
                db_mult: 1.6,
                db_queries: 3,
            },
            Servlet {
                name: "SearchInComments",
                weight: 3.0,
                web_mult: 1.0,
                app_mult: 1.4,
                db_mult: 1.7,
                db_queries: 3,
            },
            Servlet {
                name: "SearchInUsers",
                weight: 2.0,
                web_mult: 1.0,
                app_mult: 1.2,
                db_mult: 1.2,
                db_queries: 2,
            },
            Servlet {
                name: "ViewUserInfo",
                weight: 4.0,
                web_mult: 1.0,
                app_mult: 0.8,
                db_mult: 0.9,
                db_queries: 2,
            },
            Servlet {
                name: "AboutMe",
                weight: 2.0,
                web_mult: 1.0,
                app_mult: 0.9,
                db_mult: 1.0,
                db_queries: 2,
            },
            Servlet {
                name: "StoriesByAuthor",
                weight: 3.0,
                web_mult: 1.0,
                app_mult: 1.0,
                db_mult: 1.1,
                db_queries: 2,
            },
            Servlet {
                name: "CommentsByAuthor",
                weight: 2.0,
                web_mult: 1.0,
                app_mult: 1.0,
                db_mult: 1.1,
                db_queries: 2,
            },
            Servlet {
                name: "TopStories",
                weight: 4.0,
                web_mult: 1.0,
                app_mult: 1.1,
                db_mult: 1.0,
                db_queries: 2,
            },
            Servlet {
                name: "HotTopics",
                weight: 3.0,
                web_mult: 1.0,
                app_mult: 1.0,
                db_mult: 1.0,
                db_queries: 2,
            },
            Servlet {
                name: "ModeratedComments",
                weight: 2.0,
                web_mult: 1.0,
                app_mult: 1.0,
                db_mult: 1.2,
                db_queries: 2,
            },
            Servlet {
                name: "StoryPreview",
                weight: 2.0,
                web_mult: 1.0,
                app_mult: 0.7,
                db_mult: 0.6,
                db_queries: 1,
            },
            Servlet {
                name: "CommentPreview",
                weight: 2.0,
                web_mult: 1.0,
                app_mult: 0.7,
                db_mult: 0.6,
                db_queries: 1,
            },
            Servlet {
                name: "BrowseStoriesByDate",
                weight: 3.0,
                web_mult: 1.0,
                app_mult: 1.1,
                db_mult: 1.2,
                db_queries: 2,
            },
            Servlet {
                name: "ViewStoryComments",
                weight: 3.0,
                web_mult: 1.0,
                app_mult: 1.2,
                db_mult: 1.3,
                db_queries: 3,
            },
            Servlet {
                name: "UserIndex",
                weight: 1.0,
                web_mult: 1.0,
                app_mult: 0.8,
                db_mult: 0.8,
                db_queries: 1,
            },
            Servlet {
                name: "CategoryIndex",
                weight: 1.0,
                web_mult: 1.0,
                app_mult: 0.7,
                db_mult: 0.7,
                db_queries: 1,
            },
            Servlet {
                name: "StaticFront",
                weight: 2.0,
                web_mult: 1.2,
                app_mult: 0.5,
                db_mult: 0.5,
                db_queries: 1,
            },
            Servlet {
                name: "PopularityRanking",
                weight: 2.0,
                web_mult: 1.0,
                app_mult: 1.3,
                db_mult: 1.5,
                db_queries: 3,
            },
        ];
        Self::from_servlets(servlets).expect("built-in mix is valid")
    }

    /// Builds a mix from custom servlets.
    ///
    /// # Errors
    ///
    /// Returns [`WeightsError`] if the weight vector is empty or invalid.
    pub fn from_servlets(servlets: Vec<Servlet>) -> Result<Self, WeightsError> {
        let weights: Vec<f64> = servlets.iter().map(|s| s.weight).collect();
        let alias = AliasTable::new(&weights)?;
        Ok(ServletMix { servlets, alias })
    }

    /// Number of interaction types.
    pub fn len(&self) -> usize {
        self.servlets.len()
    }

    /// True if the mix is empty (never constructible through the public
    /// API).
    pub fn is_empty(&self) -> bool {
        self.servlets.is_empty()
    }

    /// The servlets in index order.
    pub fn servlets(&self) -> &[Servlet] {
        &self.servlets
    }

    /// Samples a servlet index according to the mix weights.
    pub fn sample_index(&self, rng: &mut SimRng) -> usize {
        self.alias.sample(rng)
    }

    /// The servlet at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn servlet(&self, index: usize) -> &Servlet {
        &self.servlets[index]
    }

    /// Weighted mean of database queries per request — the mix's `V₃`.
    pub fn mean_db_queries(&self) -> f64 {
        let total_w: f64 = self.servlets.iter().map(|s| s.weight).sum();
        self.servlets
            .iter()
            .map(|s| s.weight * f64::from(s.db_queries))
            .sum::<f64>()
            / total_w
    }

    /// Weighted mean of the per-tier demand multipliers
    /// `(web, app, db per query)`.
    pub fn mean_multipliers(&self) -> (f64, f64, f64) {
        let total_w: f64 = self.servlets.iter().map(|s| s.weight).sum();
        let web = self
            .servlets
            .iter()
            .map(|s| s.weight * s.web_mult)
            .sum::<f64>()
            / total_w;
        let app = self
            .servlets
            .iter()
            .map(|s| s.weight * s.app_mult)
            .sum::<f64>()
            / total_w;
        let db = self
            .servlets
            .iter()
            .map(|s| s.weight * s.db_mult)
            .sum::<f64>()
            / total_w;
        (web, app, db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn browse_only_has_24_servlets() {
        let mix = ServletMix::browse_only();
        assert_eq!(mix.len(), 24);
        assert!(!mix.is_empty());
    }

    #[test]
    fn mean_db_queries_is_about_two() {
        let v3 = ServletMix::browse_only().mean_db_queries();
        assert!((v3 - 2.0).abs() < 0.15, "V3 {v3}");
    }

    #[test]
    fn sampling_respects_weights() {
        let mix = ServletMix::browse_only();
        let mut rng = SimRng::seed_from(5);
        let mut counts = vec![0u32; mix.len()];
        let n = 100_000;
        for _ in 0..n {
            counts[mix.sample_index(&mut rng)] += 1;
        }
        // Heaviest servlet (StoriesOfTheDay, weight 14/104) appears most.
        let max_idx = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .unwrap()
            .0;
        assert_eq!(mix.servlet(max_idx).name, "StoriesOfTheDay");
        // Every servlet appears.
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn mean_multipliers_are_near_one() {
        let (web, app, db) = ServletMix::browse_only().mean_multipliers();
        assert!((web - 1.0).abs() < 0.1, "web {web}");
        assert!((app - 1.0).abs() < 0.15, "app {app}");
        assert!((db - 1.0).abs() < 0.15, "db {db}");
    }

    #[test]
    fn custom_mix_validation() {
        assert!(ServletMix::from_servlets(vec![]).is_err());
        let one = Servlet {
            name: "X",
            weight: 1.0,
            web_mult: 1.0,
            app_mult: 1.0,
            db_mult: 1.0,
            db_queries: 1,
        };
        let mix = ServletMix::from_servlets(vec![one]).unwrap();
        assert_eq!(mix.mean_db_queries(), 1.0);
    }
}
