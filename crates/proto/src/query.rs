//! File media kinds.
//!
//! A browse reply reports every shared file's kind (the protocol's `Type`
//! tag), and the trace keeps it. The module is named after the eDonkey
//! search language, whose `type:` filter matched these kinds; the
//! language itself is not modelled, because the crawl never searches by
//! metadata.

use std::fmt;

/// Media kind of a file, as a browse reply reports it.
///
/// The workload generator assigns kinds jointly with sizes (MP3s are
/// megabytes, DivX movies are hundreds of megabytes — Fig. 6 of the
/// paper), and Fig. 13 singles out *audio* files.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FileKind {
    /// Music and other audio (typically 1–10 MB MP3s).
    Audio,
    /// Movies and clips (DivX movies are the > 600 MB mode of Fig. 6).
    Video,
    /// Archives: complete albums, ISO images (10–600 MB mode).
    Archive,
    /// Pictures (the < 1 MB mode).
    Image,
    /// Text documents.
    Document,
    /// Software.
    Program,
}

impl FileKind {
    /// All kinds, for iteration.
    pub const ALL: [FileKind; 6] = [
        FileKind::Audio,
        FileKind::Video,
        FileKind::Archive,
        FileKind::Image,
        FileKind::Document,
        FileKind::Program,
    ];

    /// The canonical tag string (`"Audio"`, `"Video"`, …).
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            FileKind::Audio => "Audio",
            FileKind::Video => "Video",
            FileKind::Archive => "Archive",
            FileKind::Image => "Image",
            FileKind::Document => "Document",
            FileKind::Program => "Program",
        }
    }

    /// Parses a tag string, case-insensitively.
    pub fn from_str_ci(s: &str) -> Option<FileKind> {
        FileKind::ALL
            .iter()
            .copied()
            .find(|k| k.as_str().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for FileKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_string_round_trip() {
        for k in FileKind::ALL {
            assert_eq!(FileKind::from_str_ci(k.as_str()), Some(k));
            assert_eq!(FileKind::from_str_ci(&k.as_str().to_lowercase()), Some(k));
        }
        assert_eq!(FileKind::from_str_ci("polka"), None);
    }
}
