// stegfs_shell: an interactive (or scripted) shell over a StegFS volume —
// the closest user experience to the paper's mounted Linux file system.
//
//   ./stegfs_shell <volume.img>            interactive session
//   echo "cmds" | ./stegfs_shell <volume>  scripted session
//
// Commands:
//   mkfs                         format the volume (DESTROYS contents)
//   login <uid>                  set the session user
//   ls [path]                    list a plain directory (or /steg)
//   cat <path>                   print a plain or /steg/<obj> file
//   put <path> <text...>         write a plain file
//   mkdir <path>                 create a plain directory
//   rm <path>                    unlink a plain file
//   hide <path> <objname> <uak>  steg_hide a plain file/dir
//   unhide <path> <objname> <uak> steg_unhide back to plain
//   create <objname> <uak>       steg_create an empty hidden file
//   connect <objname> <uak>      steg_connect (reveals offspring)
//   disconnect <objname>         steg_disconnect
//   hput <objname> <text...>     write a connected hidden file
//   hrm <objname> <uak>          delete a hidden object
//   tick                         one dummy-maintenance round
//   space                        volume space report
//   metrics                      crypto tiers + the volume's metrics
//                                (Prometheus text)
//   quit
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "blockdev/file_block_device.h"
#include "core/stegfs.h"
#include "crypto/aes.h"
#include "crypto/gf256_simd.h"
#include "crypto/sha256.h"
#include "vfs/vfs.h"

using namespace stegfs;

namespace {

void Report(const Status& s) {
  std::printf("%s\n", s.ok() ? "ok" : s.ToString().c_str());
}

std::vector<std::string> Tokenize(const std::string& line, int max_parts) {
  std::vector<std::string> parts;
  std::istringstream in(line);
  std::string tok;
  while (static_cast<int>(parts.size()) + 1 < max_parts && in >> tok) {
    parts.push_back(tok);
  }
  std::string rest;
  std::getline(in, rest);
  if (!rest.empty()) {
    size_t start = rest.find_first_not_of(" \t");
    if (start != std::string::npos) parts.push_back(rest.substr(start));
  }
  return parts;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <volume.img>\n", argv[0]);
    return 2;
  }
  const std::string volume_path = argv[1];
  const uint32_t kBlockSize = 1024;
  const uint64_t kBlocks = 65536;  // 64 MB

  std::unique_ptr<BlockDevice> device;
  {
    auto opened = FileBlockDevice::Open(volume_path, kBlockSize);
    if (opened.ok()) {
      device = std::move(opened).value();
    } else {
      auto created = FileBlockDevice::Create(volume_path, kBlockSize, kBlocks);
      if (!created.ok()) {
        std::fprintf(stderr, "cannot create %s: %s\n", volume_path.c_str(),
                     created.status().ToString().c_str());
        return 1;
      }
      device = std::move(created).value();
      std::printf("created empty volume file %s — run 'mkfs' first\n",
                  volume_path.c_str());
    }
  }

  std::unique_ptr<StegFs> fs;
  {
    auto mounted = StegFs::Mount(device.get(), StegFsOptions{});
    if (mounted.ok()) {
      fs = std::move(mounted).value();
      std::printf("mounted %s\n", volume_path.c_str());
    } else {
      std::printf("not a StegFS volume yet (%s) — run 'mkfs'\n",
                  mounted.status().ToString().c_str());
    }
  }

  std::string uid = "user";
  std::string line;
  std::printf("stegfs> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    auto parts = Tokenize(line, 4);
    if (parts.empty()) {
      std::printf("stegfs> ");
      std::fflush(stdout);
      continue;
    }
    const std::string& cmd = parts[0];

    if (cmd == "quit" || cmd == "exit") break;

    if (cmd == "mkfs") {
      fs.reset();
      StegFormatOptions fo;
      fo.params.dummy_file_count = 4;
      fo.params.dummy_file_avg_bytes = 256 << 10;
      fo.entropy = "shell:" + volume_path;
      Status s = StegFs::Format(device.get(), fo);
      if (s.ok()) {
        auto mounted = StegFs::Mount(device.get(), StegFsOptions{});
        if (mounted.ok()) fs = std::move(mounted).value();
        std::printf("formatted and mounted\n");
      } else {
        Report(s);
      }
    } else if (!fs) {
      std::printf("no mounted volume — run 'mkfs'\n");
    } else if (cmd == "login" && parts.size() >= 2) {
      (void)fs->DisconnectAll(uid);
      uid = parts[1];
      std::printf("session user: %s\n", uid.c_str());
    } else if (cmd == "ls") {
      std::string path = parts.size() >= 2 ? parts[1] : "/";
      if (path == "/steg") {
        for (const auto& name : fs->ConnectedObjects(uid)) {
          std::printf("  [hidden] %s\n", name.c_str());
        }
      } else {
        auto entries = fs->plain()->List(path);
        if (!entries.ok()) {
          Report(entries.status());
        } else {
          for (const auto& e : *entries) {
            auto info = fs->plain()->Stat(
                path == "/" ? "/" + e.name : path + "/" + e.name);
            std::printf("  %s%s\n", e.name.c_str(),
                        info.ok() && info->type == InodeType::kDirectory
                            ? "/"
                            : "");
          }
        }
      }
    } else if (cmd == "cat" && parts.size() >= 2) {
      const std::string& path = parts[1];
      if (path.rfind("/steg/", 0) == 0) {
        auto data = fs->HiddenReadAll(uid, path.substr(6));
        if (data.ok()) {
          std::printf("%s\n", data->c_str());
        } else {
          Report(data.status());
        }
      } else {
        auto data = fs->plain()->ReadFile(path);
        if (data.ok()) {
          std::printf("%s\n", data->c_str());
        } else {
          Report(data.status());
        }
      }
    } else if (cmd == "put" && parts.size() >= 3) {
      // Re-tokenize so <text...> keeps its spaces (parts was split for the
      // 4-argument commands).
      auto p = Tokenize(line, 3);
      Report(fs->plain()->WriteFile(p[1], p[2]));
    } else if (cmd == "mkdir" && parts.size() >= 2) {
      Report(fs->plain()->MkDir(parts[1]));
    } else if (cmd == "rm" && parts.size() >= 2) {
      Report(fs->plain()->Unlink(parts[1]));
    } else if (cmd == "hide" && parts.size() >= 4) {
      Report(fs->StegHide(uid, parts[1], parts[2], parts[3]));
    } else if (cmd == "unhide" && parts.size() >= 4) {
      Report(fs->StegUnhide(uid, parts[1], parts[2], parts[3]));
    } else if (cmd == "create" && parts.size() >= 3) {
      Report(fs->StegCreate(uid, parts[1], parts[2], HiddenType::kFile));
    } else if (cmd == "connect" && parts.size() >= 3) {
      Report(fs->StegConnect(uid, parts[1], parts[2]));
    } else if (cmd == "disconnect" && parts.size() >= 2) {
      Report(fs->StegDisconnect(uid, parts[1]));
    } else if (cmd == "hput" && parts.size() >= 3) {
      auto p = Tokenize(line, 3);
      Report(fs->HiddenWriteAll(uid, p[1], p[2]));
    } else if (cmd == "hrm" && parts.size() >= 3) {
      Report(fs->HiddenRemove(uid, parts[1], parts[2]));
    } else if (cmd == "tick") {
      Report(fs->MaintenanceTick());
    } else if (cmd == "space") {
      SpaceReport r = fs->ReportSpace();
      std::printf("blocks: %llu total, %llu allocated, %llu free "
                  "(plain bytes: %llu)\n",
                  static_cast<unsigned long long>(r.total_blocks),
                  static_cast<unsigned long long>(r.allocated_blocks),
                  static_cast<unsigned long long>(r.free_blocks),
                  static_cast<unsigned long long>(r.plain_file_bytes));
    } else if (cmd == "metrics") {
      std::printf("# tiers: aes %s, sha %s, gf %s\n", crypto::AesTierName(),
                  crypto::ShaTierName(), crypto::GfTierName());
      std::printf("%s", fs->plain()->metrics_registry()->TextExposition()
                            .c_str());
    } else {
      std::printf("unknown or incomplete command: %s\n", cmd.c_str());
    }
    std::printf("stegfs> ");
    std::fflush(stdout);
  }

  if (fs) {
    (void)fs->DisconnectAll(uid);
    (void)fs->Flush();
  }
  std::printf("\nbye\n");
  return 0;
}
