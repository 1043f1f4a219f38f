#include "sim/checkpoint.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/crc32.h"
#include "util/durable_file.h"

namespace xtest::sim {

namespace {

constexpr const char* kMagicV1 = "xtest-checkpoint v1";
constexpr const char* kMagicV2 = "xtest-checkpoint v2";
constexpr const char* kMagicOnline = "xtest-online-checkpoint v1";

[[noreturn]] void malformed(const std::string& path, const std::string& why) {
  throw std::runtime_error("checkpoint " + path + ": " + why);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

bool parse_section_header(const std::string& line, std::string& name,
                          std::size_t& count) {
  std::istringstream hs(line);
  std::string word;
  return (hs >> word >> name >> count) && word == "section";
}

bool valid_slots(const std::string& slots) {
  Verdict v;
  for (const char c : slots)
    if (c != '.' && !verdict_from_char(c, v)) return false;
  return true;
}

/// The on-line codec's slot line without its CRC field.
std::string outcome_prefix(const std::string& section, std::size_t index,
                           const OnlineOutcome& o) {
  std::ostringstream os;
  os << "slot " << section << ' ' << index << ' ' << to_char(o.verdict)
     << ' ' << o.detection_latency_cycles << ' ' << o.rounds << ' '
     << o.heartbeats << ' ' << o.deadlines_late << ' ' << o.deadlines_missed;
  return os.str();
}

/// Parses one CRC-verified on-line slot line; false on any damage.
bool parse_outcome_line(const std::string& line, std::string& section,
                        std::size_t& index, OnlineOutcome& o) {
  const std::size_t cut = line.find_last_of(' ');
  if (cut == std::string::npos || line.size() - cut != 9 ||
      line.rfind("slot ", 0) != 0 ||
      line.substr(cut + 1) != util::crc_hex(line.substr(0, cut)))
    return false;
  std::istringstream is(line.substr(5, cut - 5));
  char vc = '?';
  is >> section >> index >> vc >> o.detection_latency_cycles >> o.rounds >>
      o.heartbeats >> o.deadlines_late >> o.deadlines_missed;
  return static_cast<bool>(is) && verdict_from_char(vc, o.verdict);
}

}  // namespace

CampaignCheckpoint::CampaignCheckpoint(std::string path, std::string key,
                                       std::size_t flush_every,
                                       std::string tag,
                                       CheckpointFormat format)
    : path_(std::move(path)),
      key_(std::move(key)),
      tag_(std::move(tag)),
      format_(format),
      flush_every_(flush_every == 0 ? 1 : flush_every) {
  util::remove_stale_tmps(path_, tag_);
  const std::optional<std::string> text =
      util::read_whole_file(path_, "checkpoint");
  // Absent: a fresh campaign.  Empty: e.g. a crash during the very first
  // create.  Either way there is nothing to resume.
  if (text && !text->empty()) load(*text);
}

void CampaignCheckpoint::load(const std::string& text) {
  const std::vector<std::string> lines = split_lines(text);
  const bool online = format_ == CheckpointFormat::kOnlineOutcomes;
  const std::string magic = online ? kMagicOnline : kMagicV2;
  const bool v1 = !online && lines[0] == kMagicV1;
  if (lines[0] == magic || v1) {
    // v2 and on-line headers carry a CRC over magic + key; v1 has none.
    std::uint32_t stored = 0;
    if (lines.size() < (v1 ? 2u : 3u) || lines[1].rfind("key ", 0) != 0 ||
        (!v1 && (!util::parse_crc_line(lines[2], stored) ||
                 util::crc32(lines[0] + '\n' + lines[1] + '\n') != stored))) {
      // Header unverifiable: the whole file is untrustworthy.  Restart
      // cleanly rather than resume from (or mis-reject on) a corrupt key.
      drop_tail(lines, 1);
      return;
    }
    const std::string stored_key = lines[1].substr(4);
    if (stored_key != key_)
      malformed(path_, "key mismatch: file was written for '" + stored_key +
                           "' but this campaign is '" + key_ +
                           "' (delete the file to start over)");
    if (online)
      load_outcomes(lines, 3);
    else
      load_verdicts(lines, v1 ? 2 : 3, v1);
    return;
  }
  // A truncation can cut the file anywhere, including inside the magic
  // line; a strict prefix of a magic is corruption to recover from,
  // anything else is some other file we must refuse to overwrite.
  if (lines.size() == 1 &&
      (magic.rfind(lines[0], 0) == 0 ||
       (!online && std::string(kMagicV1).rfind(lines[0], 0) == 0))) {
    salvage_.salvaged = true;
    return;
  }
  malformed(path_, "not a checkpoint file (bad magic line)");
}

void CampaignCheckpoint::load_verdicts(const std::vector<std::string>& lines,
                                       std::size_t i, bool v1) {
  // v2 groups are header, slots, CRC; v1 groups have no CRC line and may
  // be separated by blank lines.
  const std::size_t group = v1 ? 2 : 3;
  while (i < lines.size()) {
    if (v1 && lines[i].empty()) {
      ++i;
      continue;
    }
    std::string name;
    std::size_t count = 0;
    std::uint32_t crc = 0;
    if (!parse_section_header(lines[i], name, count) ||
        i + group - 1 >= lines.size() || lines[i + 1].size() != count ||
        !valid_slots(lines[i + 1]) ||
        (!v1 && (!util::parse_crc_line(lines[i + 2], crc) ||
                 util::crc32(lines[i] + '\n' + lines[i + 1] + '\n') != crc))) {
      drop_tail(lines, i);
      return;
    }
    sections_.push_back(
        {name, std::vector<char>(lines[i + 1].begin(), lines[i + 1].end()),
         {}});
    ++salvage_.sections_kept;
    i += group;
  }
}

void CampaignCheckpoint::load_outcomes(const std::vector<std::string>& lines,
                                       std::size_t i) {
  // Sections are sized to their highest stored index here and grown to
  // the campaign's slot count by restore().
  for (; i < lines.size(); ++i) {
    std::string name;
    std::size_t index = 0;
    OnlineOutcome o;
    if (!parse_outcome_line(lines[i], name, index, o)) {
      drop_tail(lines, i);
      return;
    }
    Section* s = find_locked(name);
    if (s == nullptr) {
      sections_.push_back({name, {}, {}});
      s = &sections_.back();
      ++salvage_.sections_kept;
    }
    if (index >= s->slots.size()) {
      s->slots.resize(index + 1, '.');
      s->outcomes.resize(index + 1);
    }
    s->slots[index] = to_char(o.verdict);
    s->outcomes[index] = o;
  }
}

void CampaignCheckpoint::drop_tail(const std::vector<std::string>& lines,
                                   std::size_t from) {
  salvage_.salvaged = true;
  for (std::size_t j = from; j < lines.size(); ++j) {
    if (lines[j].rfind("slot ", 0) == 0)
      ++salvage_.dropped_slots;  // one on-line outcome line
    else if (!lines[j].empty() && valid_slots(lines[j]))  // a verdict line
      for (const char c : lines[j]) salvage_.dropped_slots += c != '.';
  }
}

CampaignCheckpoint::Section* CampaignCheckpoint::find_locked(
    const std::string& section) {
  for (Section& s : sections_)
    if (s.name == section) return &s;
  return nullptr;
}

CampaignCheckpoint::Section& CampaignCheckpoint::restore_locked(
    const std::string& section, std::size_t count) {
  const bool online = format_ == CheckpointFormat::kOnlineOutcomes;
  Section* s = find_locked(section);
  if (s == nullptr) {
    sections_.push_back({section, {}, {}});
    s = &sections_.back();
  } else if (online ? s->slots.size() > count : s->slots.size() != count) {
    // (On-line sections load only up to their highest completed index.)
    malformed(path_, "section '" + section + "' has " +
                         std::to_string(s->slots.size()) +
                         " slots but the campaign needs " +
                         std::to_string(count) + " (different library?)");
  }
  s->slots.resize(count, '.');
  if (online) s->outcomes.resize(count);
  return *s;
}

std::vector<std::optional<Verdict>> CampaignCheckpoint::restore(
    const std::string& section, std::size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  const Section& s = restore_locked(section, count);
  std::vector<std::optional<Verdict>> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    Verdict v;
    if (verdict_from_char(s.slots[i], v)) out[i] = v;
  }
  return out;
}

std::vector<std::optional<OnlineOutcome>> CampaignCheckpoint::restore_outcomes(
    const std::string& section, std::size_t count) {
  if (format_ != CheckpointFormat::kOnlineOutcomes)
    throw std::logic_error("CampaignCheckpoint::restore_outcomes: " + path_ +
                           " holds verdicts, not on-line outcomes");
  std::lock_guard<std::mutex> lock(mu_);
  const Section& s = restore_locked(section, count);
  std::vector<std::optional<OnlineOutcome>> out(count);
  for (std::size_t i = 0; i < count; ++i)
    if (s.slots[i] != '.') out[i] = s.outcomes[i];
  return out;
}

void CampaignCheckpoint::record(const std::string& section, std::size_t index,
                                Verdict v) {
  OnlineOutcome o;
  o.verdict = v;
  record(section, index, o);
}

void CampaignCheckpoint::record(const std::string& section, std::size_t index,
                                const OnlineOutcome& outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  Section* s = find_locked(section);
  if (s == nullptr || index >= s->slots.size())
    throw std::logic_error("CampaignCheckpoint::record: unknown slot " +
                           section + "[" + std::to_string(index) + "]");
  s->slots[index] = to_char(outcome.verdict);
  if (format_ == CheckpointFormat::kOnlineOutcomes)
    s->outcomes[index] = outcome;
  if (++dirty_ >= flush_every_) {
    try {
      flush_locked();
    } catch (const std::exception&) {
      // A failed periodic flush costs durability, not correctness: keep
      // the in-memory records, retry after another flush_every_ records.
      ++flush_failures_;
      dirty_ = 0;
    }
  }
}

void CampaignCheckpoint::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  flush_locked();
}

std::size_t CampaignCheckpoint::flush_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flush_failures_;
}

std::size_t CampaignCheckpoint::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Section& s : sections_)
    for (char c : s.slots) n += c != '.';
  return n;
}

std::string CampaignCheckpoint::render_locked() const {
  const bool online = format_ == CheckpointFormat::kOnlineOutcomes;
  std::string out =
      std::string(online ? kMagicOnline : kMagicV2) + "\nkey " + key_ + '\n';
  out += util::crc_line(out) + '\n';
  if (!online) {
    for (const Section& s : sections_) {
      std::string group = "section " + s.name + ' ' +
                          std::to_string(s.slots.size()) + '\n';
      group.append(s.slots.data(), s.slots.size());
      group += '\n';
      out += group + util::crc_line(group) + '\n';
    }
    return out;
  }
  std::vector<const Section*> by_name;
  for (const Section& s : sections_) by_name.push_back(&s);
  std::sort(by_name.begin(), by_name.end(),
            [](const Section* a, const Section* b) {
              return a->name < b->name;
            });
  for (const Section* s : by_name) {
    for (std::size_t i = 0; i < s->slots.size(); ++i) {
      if (s->slots[i] == '.') continue;
      const std::string prefix = outcome_prefix(s->name, i, s->outcomes[i]);
      out += prefix + ' ' + util::crc_hex(prefix) + '\n';
    }
  }
  return out;
}

void CampaignCheckpoint::flush_locked() {
  util::write_durably(path_, render_locked(), "checkpoint", "checkpoint",
                      tag_);
  dirty_ = 0;
}

}  // namespace xtest::sim
