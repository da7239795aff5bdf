#include "trace/trace_io.h"

#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace rtsmooth::trace {
namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& line) {
  throw std::runtime_error("trace parse error at line " +
                           std::to_string(line_no) + ": '" + line + "'");
}

bool is_integer(const std::string& tok) {
  if (tok.empty()) return false;
  for (char c : tok) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

FrameSequence read_trace(std::istream& in) {
  FrameSequence frames;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream tokens(line);
    std::vector<std::string> toks;
    for (std::string t; tokens >> t;) toks.push_back(t);
    if (toks.empty()) continue;

    Frame f;
    std::string size_tok;
    if (toks.size() == 1) {
      size_tok = toks[0];
    } else if (toks.size() == 2) {
      if (toks[0].size() != 1 ||
          frame_type_from_char(toks[0][0]) == FrameType::Other) {
        fail(line_no, line);
      }
      f.type = frame_type_from_char(toks[0][0]);
      size_tok = toks[1];
    } else if (toks.size() == 3) {
      if (!is_integer(toks[0]) || toks[1].size() != 1) fail(line_no, line);
      f.type = frame_type_from_char(toks[1][0]);
      size_tok = toks[2];
    } else {
      fail(line_no, line);
    }
    if (!is_integer(size_tok)) fail(line_no, line);
    // from_chars, not stoll: a size too large for the type is a malformed
    // line like any other, not a std::out_of_range.
    const char* end = size_tok.data() + size_tok.size();
    if (std::from_chars(size_tok.data(), end, f.size).ec != std::errc{} ||
        f.size <= 0) {
      fail(line_no, line);
    }
    frames.push_back(f);
  }
  return frames;
}

FrameSequence read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace(in);
}

void write_trace(std::ostream& out, const FrameSequence& frames) {
  for (const Frame& f : frames) {
    out << to_char(f.type) << ' ' << f.size << '\n';
  }
}

void write_trace_file(const std::string& path, const FrameSequence& frames) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file: " + path);
  write_trace(out, frames);
}

}  // namespace rtsmooth::trace
