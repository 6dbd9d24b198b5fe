//! The wire protocol's JSON type: the workspace's one [`sgf_metrics::Json`],
//! under the name the protocol API has always used.

pub use sgf_metrics::json::{Json as Value, ParseError};
