//! The `GET /rest/query` parameter surface: query-string parsing,
//! percent decoding, dispatch into the engine and JSON rendering.
//!
//! Shape: `series=<key>&fn=value|rate|increase|points|quantile`
//! `&window=<ticks>&q=<0..1>`. With no `series` parameter the endpoint
//! lists every retained series key (discovery for `imcf top`).

use crate::engine::{ObsEngine, QueryError};
use serde_json::Value;

/// A parsed `/rest/query` request.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryParams {
    pub series: Option<String>,
    pub func: QueryFn,
    pub window: u64,
    pub q: f64,
}

/// The range function to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryFn {
    Value,
    Rate,
    Increase,
    Points,
    Quantile,
}

impl QueryFn {
    pub fn label(self) -> &'static str {
        match self {
            QueryFn::Value => "value",
            QueryFn::Rate => "rate",
            QueryFn::Increase => "increase",
            QueryFn::Points => "points",
            QueryFn::Quantile => "quantile",
        }
    }
}

/// Decodes `%XX` escapes and `+` (space) in a query-string component.
/// An escape is taken only when both bytes after the `%` are ASCII hex
/// digits; malformed escapes pass through literally rather than erroring —
/// the series lookup will simply miss.
pub fn percent_decode(input: &str) -> String {
    let bytes = input.as_bytes();
    let hex = |at: usize| bytes.get(at).and_then(|&b| char::from(b).to_digit(16));
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match (bytes[i], hex(i + 1), hex(i + 2)) {
            (b'+', ..) => out.push(b' '),
            (b'%', Some(high), Some(low)) => {
                out.push((high * 16 + low) as u8);
                i += 2;
            }
            (b, ..) => out.push(b),
        }
        i += 1;
    }
    String::from_utf8(out).unwrap_or_else(|_| input.to_string())
}

/// Parses the raw query string (the part after `?`).
pub fn parse_query(raw: &str) -> Result<QueryParams, QueryError> {
    let mut params = QueryParams {
        series: None,
        func: QueryFn::Value,
        window: 60,
        q: 0.99,
    };
    let mut func_given = false;
    for pair in raw.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = match pair.split_once('=') {
            Some((k, v)) => (k, percent_decode(v)),
            None => (pair, String::new()),
        };
        match key {
            "series" => params.series = Some(value),
            "fn" => {
                func_given = true;
                params.func = match value.as_str() {
                    "value" => QueryFn::Value,
                    "rate" => QueryFn::Rate,
                    "increase" => QueryFn::Increase,
                    "points" => QueryFn::Points,
                    "quantile" => QueryFn::Quantile,
                    other => {
                        return Err(QueryError::BadRequest(format!(
                            "unknown fn {other:?} (expected value|rate|increase|points|quantile)"
                        )))
                    }
                };
            }
            "window" => {
                params.window = value.parse::<u64>().map_err(|_| {
                    QueryError::BadRequest(format!("window must be a tick count, got {value:?}"))
                })?;
                if params.window == 0 {
                    return Err(QueryError::BadRequest("window must be > 0".to_string()));
                }
            }
            "q" => {
                params.q = value.parse::<f64>().map_err(|_| {
                    QueryError::BadRequest(format!("q must be a number in (0,1), got {value:?}"))
                })?;
                if !(params.q > 0.0 && params.q < 1.0) {
                    return Err(QueryError::BadRequest(format!(
                        "q must be in (0,1), got {}",
                        params.q
                    )));
                }
            }
            other => {
                return Err(QueryError::BadRequest(format!(
                    "unknown parameter {other:?}"
                )))
            }
        }
    }
    if params.series.is_none() && func_given {
        return Err(QueryError::BadRequest(
            "fn requires a series parameter".to_string(),
        ));
    }
    Ok(params)
}

fn scalar_body(engine: &ObsEngine, params: &QueryParams, series: &str, value: f64) -> String {
    let mut fields = vec![
        ("series".to_string(), serde_json::to_value(&series)),
        ("fn".to_string(), serde_json::to_value(&params.func.label())),
    ];
    if matches!(
        params.func,
        QueryFn::Rate | QueryFn::Increase | QueryFn::Quantile
    ) {
        fields.push(("window".to_string(), serde_json::to_value(&params.window)));
    }
    if matches!(params.func, QueryFn::Quantile) {
        fields.push(("q".to_string(), serde_json::to_value(&params.q)));
    }
    fields.push((
        "tick".to_string(),
        serde_json::to_value(&engine.last_tick()),
    ));
    fields.push(("value".to_string(), serde_json::to_value(&value)));
    serde_json::to_string(&Value::Object(fields)).unwrap_or_else(|_| String::from("{}"))
}

/// Executes a parsed query against the engine, returning the response
/// body as a JSON string.
pub fn run_query(engine: &ObsEngine, params: &QueryParams) -> Result<String, QueryError> {
    let Some(series) = &params.series else {
        let names = engine.series_names();
        let body = Value::Object(vec![
            (
                "tick".to_string(),
                serde_json::to_value(&engine.last_tick()),
            ),
            ("series".to_string(), serde_json::to_value(&names)),
        ]);
        return Ok(serde_json::to_string(&body).unwrap_or_else(|_| String::from("{}")));
    };
    match params.func {
        QueryFn::Value => {
            let value = engine.value(series)?;
            Ok(scalar_body(engine, params, series, value))
        }
        QueryFn::Rate => {
            let value = engine.rate(series, params.window)?;
            Ok(scalar_body(engine, params, series, value))
        }
        QueryFn::Increase => {
            let value = engine.increase(series, params.window)?;
            Ok(scalar_body(engine, params, series, value))
        }
        QueryFn::Quantile => {
            let now = engine.last_tick().unwrap_or(0);
            let value = engine
                .quantile_over_time(series, params.q, params.window, now)
                .ok_or_else(|| {
                    QueryError::UnknownSeries(format!("{series} (no histogram buckets retained)"))
                })?;
            Ok(scalar_body(engine, params, series, value))
        }
        QueryFn::Points => {
            let points = engine.points(series)?;
            let body = Value::Object(vec![
                ("series".to_string(), serde_json::to_value(series)),
                ("fn".to_string(), serde_json::to_value(&"points")),
                (
                    "tick".to_string(),
                    serde_json::to_value(&engine.last_tick()),
                ),
                ("points".to_string(), serde_json::to_value(&points)),
            ]);
            Ok(serde_json::to_string(&body).unwrap_or_else(|_| String::from("{}")))
        }
    }
}

/// Parses and runs in one step (the Router calls this).
pub fn handle_query(engine: &ObsEngine, raw_query: &str) -> Result<String, QueryError> {
    let params = parse_query(raw_query)?;
    run_query(engine, &params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decode_basics() {
        assert_eq!(percent_decode("a%7Bb%3D1%7D"), "a{b=1}");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        // An escape needs two ASCII hex digits: no slicing inside a
        // multi-byte character, and no sign accepted as a digit.
        assert_eq!(percent_decode("%a\u{e9}"), "%a\u{e9}");
        assert_eq!(percent_decode("%+1"), "% 1");
        assert_eq!(percent_decode("%4"), "%4");
        assert_eq!(percent_decode("%41%c3%A9"), "A\u{e9}");
    }

    #[test]
    fn parse_defaults_and_errors() {
        let p = parse_query("series=breaker.open&fn=rate&window=30").expect("parses");
        assert_eq!(p.series.as_deref(), Some("breaker.open"));
        assert_eq!(p.func, QueryFn::Rate);
        assert_eq!(p.window, 30);
        assert!(parse_query("series=x&fn=median").is_err());
        assert!(parse_query("series=x&window=0").is_err());
        assert!(parse_query("series=x&q=1.5").is_err());
        assert!(parse_query("bogus=1").is_err());
        assert!(parse_query("fn=rate").is_err());
    }
}
